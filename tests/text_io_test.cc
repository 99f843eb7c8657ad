// Unit tests for storage/text_io: schema specs, fact-file loading, and
// relation writing (the CLI's data path).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "storage/text_io.h"

namespace dcdatalog {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(SchemaSpecTest, ParsesTypeLetters) {
  auto s = ParseSchemaSpec("ids");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().arity(), 3u);
  EXPECT_EQ(s.value().type(0), ColumnType::kInt);
  EXPECT_EQ(s.value().type(1), ColumnType::kDouble);
  EXPECT_EQ(s.value().type(2), ColumnType::kString);
}

TEST(SchemaSpecTest, RejectsBadSpecs) {
  EXPECT_FALSE(ParseSchemaSpec("").ok());
  EXPECT_FALSE(ParseSchemaSpec("ix").ok());
}

TEST(TextIoTest, LoadsTypedColumns) {
  const std::string path = TempPath("facts1.tsv");
  WriteFile(path,
            "# comment\n"
            "1 2.5 alice\n"
            "\n"
            "% another comment\n"
            "-3 0.25 bob\n");
  StringDict dict;
  auto rel = LoadRelationFile("r", ParseSchemaSpec("ids").value(), path,
                              &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel.value().size(), 2u);
  EXPECT_EQ(IntFromWord(rel.value().Row(0)[0]), 1);
  EXPECT_DOUBLE_EQ(DoubleFromWord(rel.value().Row(0)[1]), 2.5);
  EXPECT_EQ(dict.Get(rel.value().Row(0)[2]), "alice");
  EXPECT_EQ(IntFromWord(rel.value().Row(1)[0]), -3);
  std::remove(path.c_str());
}

TEST(TextIoTest, RejectsMalformedRows) {
  const std::string path = TempPath("facts2.tsv");
  WriteFile(path, "1 2\n3\n");
  StringDict dict;
  auto rel = LoadRelationFile("r", Schema::Ints(2), path, &dict);
  EXPECT_FALSE(rel.ok());
  EXPECT_NE(rel.status().message().find(":2"), std::string::npos);

  WriteFile(path, "1 x\n");
  EXPECT_FALSE(LoadRelationFile("r", Schema::Ints(2), path, &dict).ok());
  WriteFile(path, "1 2.x\n");
  EXPECT_FALSE(
      LoadRelationFile("r", ParseSchemaSpec("id").value(), path, &dict).ok());
  std::remove(path.c_str());
}

TEST(TextIoTest, ErrorTextsNameTokenAndLine) {
  const std::string path = TempPath("facts_err.tsv");
  StringDict dict;
  const auto message = [&](const std::string& content, const char* spec) {
    WriteFile(path, content);
    auto rel = LoadRelationFile("r", ParseSchemaSpec(spec).value(), path,
                                &dict);
    EXPECT_FALSE(rel.ok());
    EXPECT_EQ(rel.status().code(), StatusCode::kParseError);
    return rel.ok() ? std::string() : rel.status().message();
  };
  EXPECT_EQ(message("1 2\n3\n", "ii"), "row too short at " + path + ":2");
  // A line of blanks is not a blank line: it is a row with no tokens.
  EXPECT_EQ(message("1 2\n \t\n", "ii"), "row too short at " + path + ":2");
  EXPECT_EQ(message("# c\n\n1 x\n", "ii"), "bad int 'x' at " + path + ":3");
  EXPECT_EQ(message("0x10 1\n", "ii"), "bad int '0x10' at " + path + ":1");
  EXPECT_EQ(message("12abc 1\n", "ii"), "bad int '12abc' at " + path + ":1");
  EXPECT_EQ(message("1 2.x\n", "id"),
            "bad double '2.x' at " + path + ":1");
  EXPECT_EQ(message("1 2", "iii"), "row too short at " + path + ":1");
  std::remove(path.c_str());
}

TEST(TextIoTest, SeparatorsCommentsAndLineEnds) {
  const std::string path = TempPath("facts_sep.tsv");
  // Tabs, runs of spaces, leading blanks, CRLF endings, trailing tokens
  // beyond the schema (ignored), '#'/'%' comments, blank lines, '+'
  // signs, and no newline after the last row.
  WriteFile(path,
            "1\t2\n"
            "   3    4   extra tokens\n"
            "\n"
            "# 9 9\n"
            "% 9 9\n"
            "5 6\r\n"
            "\t+7\t-8");
  StringDict dict;
  auto rel = LoadRelationFile("r", Schema::Ints(2), path, &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel.value().size(), 4u);
  const int64_t want[4][2] = {{1, 2}, {3, 4}, {5, 6}, {7, -8}};
  for (uint64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(IntFromWord(rel.value().Row(r)[0]), want[r][0]) << r;
    EXPECT_EQ(IntFromWord(rel.value().Row(r)[1]), want[r][1]) << r;
  }
  // An empty file is an empty relation.
  WriteFile(path, "");
  auto empty = LoadRelationFile("r", Schema::Ints(2), path, &dict);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().size(), 0u);
  std::remove(path.c_str());
}

TEST(TextIoTest, WritesTabSeparatedRowsWithPercentGDoubles) {
  StringDict dict;
  Relation rel("r", ParseSchemaSpec("ids").value());
  const double doubles[] = {1.5,    0.1,      1234567.0, 1e-5,
                            3.0,    -2.25,    1e300,     123456.0,
                            0.0001, 2.0 / 3.0};
  int64_t i = -3;
  for (double d : doubles) {
    rel.Append({WordFromInt(i), WordFromDouble(d),
                dict.Intern("s" + std::to_string(i))});
    i += 1000;
  }
  const std::string path = TempPath("facts_out.tsv");
  ASSERT_TRUE(WriteRelationFile(rel, path, &dict).ok());
  std::ifstream in(path);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(got,
            "-3\t1.5\ts-3\n"
            "997\t0.1\ts997\n"
            "1997\t1.23457e+06\ts1997\n"
            "2997\t1e-05\ts2997\n"
            "3997\t3\ts3997\n"
            "4997\t-2.25\ts4997\n"
            "5997\t1e+300\ts5997\n"
            "6997\t123456\ts6997\n"
            "7997\t0.0001\ts7997\n"
            "8997\t0.666667\ts8997\n");
  std::remove(path.c_str());
}

TEST(TextIoTest, LargeFilesMatchStreamOutputAcrossBufferBoundaries) {
  // Well past the writer's 64 KiB pieces, so rows straddle their
  // boundaries. Bytes must equal what `ostream <<` writes, and the file
  // must load back to the same rows.
  StringDict dict;
  Relation rel("r", ParseSchemaSpec("isd").value());
  std::ostringstream expected;
  for (int64_t r = 0; r < 30000; ++r) {
    const int64_t v = (r * 7919) % 100003 - 50000;
    const double d = static_cast<double>(r) / 7.0;
    const std::string s = "name_" + std::to_string(r % 97);
    rel.Append({WordFromInt(v), dict.Intern(s), WordFromDouble(d)});
    expected << v << '\t' << s << '\t' << d << '\n';
  }
  const std::string path = TempPath("facts_big.tsv");
  ASSERT_TRUE(WriteRelationFile(rel, path, &dict).ok());
  std::ifstream in(path);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  ASSERT_GT(got.size(), 3u * 65536u);
  EXPECT_EQ(got, expected.str());

  auto loaded =
      LoadRelationFile("r", ParseSchemaSpec("isd").value(), path, &dict);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), rel.size());
  for (uint64_t r = 0; r < rel.size(); ++r) {
    EXPECT_EQ(loaded.value().Row(r)[0], rel.Row(r)[0]) << r;
    EXPECT_EQ(loaded.value().Row(r)[1], rel.Row(r)[1]) << r;
  }
  std::remove(path.c_str());
}

TEST(TextIoTest, MissingFile) {
  StringDict dict;
  EXPECT_EQ(LoadRelationFile("r", Schema::Ints(1), "/no/such/file", &dict)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(TextIoTest, WriteReadRoundTrip) {
  StringDict dict;
  Relation rel("r", ParseSchemaSpec("isd").value());
  rel.Append({WordFromInt(7), dict.Intern("x y"), WordFromDouble(1.5)});
  // Note: strings with spaces would break the format; the dict here uses a
  // space-free token to stay within the loader's contract.
  Relation rel2("r", ParseSchemaSpec("isd").value());
  rel2.Append({WordFromInt(7), dict.Intern("token"), WordFromDouble(1.5)});

  const std::string path = TempPath("facts3.tsv");
  ASSERT_TRUE(WriteRelationFile(rel2, path, &dict).ok());
  auto loaded =
      LoadRelationFile("r", ParseSchemaSpec("isd").value(), path, &dict);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(IntFromWord(loaded.value().Row(0)[0]), 7);
  EXPECT_EQ(dict.Get(loaded.value().Row(0)[1]), "token");
  EXPECT_DOUBLE_EQ(DoubleFromWord(loaded.value().Row(0)[2]), 1.5);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcdatalog
