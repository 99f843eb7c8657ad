#include "storage/text_io.h"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <vector>

namespace dcdatalog {

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Column> cols;
  for (size_t i = 0; i < spec.size(); ++i) {
    ColumnType type;
    switch (spec[i]) {
      case 'i':
        type = ColumnType::kInt;
        break;
      case 'd':
        type = ColumnType::kDouble;
        break;
      case 's':
        type = ColumnType::kString;
        break;
      default:
        return Status::InvalidArgument(
            std::string("bad schema spec character '") + spec[i] +
            "' (use i, d, s)");
    }
    cols.push_back(Column{"c" + std::to_string(i), type});
  }
  if (cols.empty()) {
    return Status::InvalidArgument("empty schema spec");
  }
  return Schema(std::move(cols));
}

namespace {

// The separator set of `std::istream >> std::string` in the classic
// locale: the loader splits tokens exactly where the stream-based loader
// it replaced did.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// Both parse a NUL-terminated token and accept it only if it is consumed
// whole.
bool ParseInt(const char* token, int64_t* out) {
  char* stop = nullptr;
  *out = std::strtoll(token, &stop, 10);
  return stop != token && *stop == '\0';
}

bool ParseDouble(const char* token, double* out) {
  char* stop = nullptr;
  *out = std::strtod(token, &stop);
  return stop != token && *stop == '\0';
}

}  // namespace

Result<Relation> LoadRelationFile(const std::string& name,
                                  const Schema& schema,
                                  const std::string& path, StringDict* dict) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open fact file: " + path);
  Relation rel(name, schema);
  std::string line;
  uint64_t line_no = 0;
  std::vector<uint64_t> row(schema.arity());
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    // Tokens are NUL-terminated in place for the C parsers: no per-line
    // stream and no per-token string.
    char* const base = line.data();
    const size_t eol = line.size();
    size_t p = 0;
    for (size_t c = 0; c < schema.arity(); ++c) {
      while (p < eol && IsSpace(base[p])) ++p;
      if (p == eol) {
        return Status::ParseError("row too short at " + path + ":" +
                                  std::to_string(line_no));
      }
      const size_t tok = p;
      while (p < eol && !IsSpace(base[p])) ++p;
      // base[p] is a separator or the string's own NUL; borrow it as the
      // token's terminator (restored below).
      const char saved = base[p];
      base[p] = '\0';
      const char* token = base + tok;
      bool ok = true;
      switch (schema.type(c)) {
        case ColumnType::kInt: {
          int64_t v = 0;
          ok = ParseInt(token, &v);
          row[c] = WordFromInt(v);
          break;
        }
        case ColumnType::kDouble: {
          double v = 0;
          ok = ParseDouble(token, &v);
          row[c] = WordFromDouble(v);
          break;
        }
        case ColumnType::kString:
          row[c] = dict->Intern(std::string_view(token, p - tok));
          break;
      }
      base[p] = saved;
      if (!ok) {
        const bool is_int = schema.type(c) == ColumnType::kInt;
        return Status::ParseError(
            std::string(is_int ? "bad int '" : "bad double '") +
            std::string(token, p - tok) + "' at " + path + ":" +
            std::to_string(line_no));
      }
    }
    rel.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
  }
  return rel;
}

Status WriteRelationFile(const Relation& relation, const std::string& path,
                         const StringDict* dict) {
  std::ofstream out(path);
  if (!out) return Status::RuntimeError("cannot write: " + path);
  // Rows are formatted into `text` and written in pieces of about 64 KiB:
  // one ofstream call per piece instead of one per field.
  constexpr size_t kWriteChunkBytes = 64 << 10;
  std::string text;
  // An int64/uint64 takes at most 20 chars, a %g double such as
  // "-1.79769e+308" 13.
  char num[32];
  const auto append_num = [&](auto value, auto... format) {
    text.append(num, std::to_chars(num, num + sizeof(num), value, format...)
                         .ptr);
  };
  const Schema& schema = relation.schema();
  for (uint64_t r = 0; r < relation.size(); ++r) {
    TupleRef row = relation.Row(r);
    for (uint32_t c = 0; c < relation.arity(); ++c) {
      if (c > 0) text += '\t';
      switch (schema.type(c)) {
        case ColumnType::kInt:
          append_num(IntFromWord(row[c]));
          break;
        case ColumnType::kDouble:
          // Precision-6 general format: the bytes `ostream << double`
          // (printf "%g") produces.
          append_num(DoubleFromWord(row[c]), std::chars_format::general, 6);
          break;
        case ColumnType::kString:
          if (dict != nullptr) {
            text += dict->Get(row[c]);
          } else {
            append_num(row[c]);
          }
          break;
      }
    }
    text += '\n';
    if (text.size() >= kWriteChunkBytes) {
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
      text.clear();
    }
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return Status::OK();
}

}  // namespace dcdatalog
