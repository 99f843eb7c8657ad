// perfbench_harness: the in-process half of the benchmark (see README.md).
//
//   perfbench_harness tc      --program P --edges F --vertices N --seconds S
//                            --trace 0|1 --observe OBS --result R
//                            [--measure 0] [--trace-json J] [engine flags]
//   perfbench_harness updates --program P --edges F --vertices N --script U
//                            --seconds S --trace 0|1 --observe OBS
//                            [--trace-json J] [engine flags]
//   perfbench_harness load    --edges F --spec iii --reps K
//   perfbench_harness check-tc      --edges F --vertices N --observed OBS
//   perfbench_harness check-updates --edges F --vertices N --script U
//                                  --observed OBS
//   perfbench_harness check-sssp    --edges F --vertices N --log L
//   perfbench_harness pick-sources  --edges F --vertices N --count K --seed S
//
// engine flags: --workers N (default 4), --mode dws|global|ssp,
// --steal on|off. Anything else keeps EngineOptions' defaults.
//
// `tc` and `updates` time one operation at a time through the engine's
// public functions and print one JSON object of measurements. They write
// what the program produced, digested per source vertex, to OBS; the
// check-* commands, run in their own process so the oracle's memory is not
// counted against the program, compare it with the oracle (oracle.h).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/string_dict.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/engine.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "oracle.h"
#include "planner/logical_plan.h"
#include "planner/physical_plan.h"
#include "storage/catalog.h"
#include "storage/text_io.h"
#include "storage/updates.h"

namespace perfbench {
namespace {

using dcdatalog::Catalog;
using dcdatalog::EngineOptions;
using dcdatalog::EvalStats;
using dcdatalog::MonotonicNanos;
using dcdatalog::Relation;
using dcdatalog::StringDict;
using dcdatalog::TraceEvent;
using dcdatalog::TraceEventKind;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_harness: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Check(dcdatalog::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Check(const dcdatalog::Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;

  std::string Str(const std::string& key, const char* def = nullptr) const {
    auto it = kv.find(key);
    if (it != kv.end()) return it->second;
    if (def == nullptr) Die("missing --" + key);
    return def;
  }
  uint64_t Uint(const std::string& key, const char* def = nullptr) const {
    const std::string v = Str(key, def);
    char* end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0') Die("--" + key + " expects an integer");
    return x;
  }
};

Args ParseArgs(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Die(std::string("bad argument: ") + argv[i]);
    }
    args.kv[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

EngineOptions EngineFromArgs(const Args& args, bool trace) {
  EngineOptions opts;
  opts.num_workers = static_cast<uint32_t>(args.Uint("workers", "4"));
  const std::string mode = args.Str("mode", "dws");
  if (mode == "dws") {
    opts.coordination = dcdatalog::CoordinationMode::kDws;
  } else if (mode == "global") {
    opts.coordination = dcdatalog::CoordinationMode::kGlobal;
  } else if (mode == "ssp") {
    opts.coordination = dcdatalog::CoordinationMode::kSsp;
  } else {
    Die("--mode expects dws|global|ssp");
  }
  const std::string steal = args.Str("steal", "on");
  if (steal != "on" && steal != "off") Die("--steal expects on|off");
  opts.enable_steal = steal == "on";
  if (trace) {
    opts.enable_trace = true;
    // Large enough that a traced run of these workloads drops no event, so
    // the wait sums below are complete.
    opts.trace_ring_capacity = 1 << 18;
  }
  return opts.Resolved();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- Statistics and output ----------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Flat JSON object of named numbers, printed as one line.
class JsonLine {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, buf);
  }
  void Print() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Per-operation samples of named quantities; reported as medians.
class Samples {
 public:
  void Add(const std::string& key, double value) { values_[key].push_back(value); }
  void AddMediansTo(JsonLine* out) const {
    for (const auto& [key, v] : values_) out->Add(key, Median(v));
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

// --- Layer spans ----------------------------------------------------------------

/// A benchmark-side span around one call into a module: kept in memory and
/// written once, at the end, as Chrome trace JSON next to the engine's own
/// worker events.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Runs `fn`, returns its wall time in ms, and records a span if tracing.
  template <typename Fn>
  double Time(const char* name, uint64_t op, Fn&& fn) {
    const int64_t start = MonotonicNanos();
    fn();
    const int64_t end = MonotonicNanos();
    if (on_) spans_.push_back(Span{name, start, end, op});
    return static_cast<double>(end - start) * 1e-6;
  }

  void KeepEngineTrace(const EvalStats& stats) { engine_events_ = stats.trace; }

  /// Not WriteChromeTrace: that exporter rebases the engine's events on
  /// their own first timestamp, and the layer spans need the same clock.
  void Write(const std::string& path) const {
    if (path.empty() || !on_) return;
    int64_t t0 = INT64_MAX;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    for (const TraceEvent& ev : engine_events_) t0 = std::min(t0, ev.start_ns);
    std::ofstream out(path);
    if (!out) Die("cannot write " + path);
    out << "{\"traceEvents\": [\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"args\": {\"name\": \"perfbench layers\"}},\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"args\": {\"name\": \"engine workers (last operation)\"}}";
    auto us = [t0](int64_t ns) { return static_cast<double>(ns - t0) * 1e-3; };
    for (const Span& s : spans_) {
      out << ",\n{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
          << us(s.start_ns) << ", \"dur\": " << us(s.end_ns) - us(s.start_ns)
          << ", \"args\": {\"op\": " << s.op << "}}";
    }
    for (const TraceEvent& ev : engine_events_) {
      out << ",\n{\"name\": \"" << dcdatalog::TraceEventKindName(ev.kind)
          << "\", \"pid\": 1, \"tid\": " << ev.worker
          << ", \"ts\": " << us(ev.start_ns);
      if (dcdatalog::TraceEventIsSpan(ev.kind)) {
        out << ", \"ph\": \"X\", \"dur\": " << us(ev.end_ns) - us(ev.start_ns);
      } else {
        out << ", \"ph\": \"i\", \"s\": \"t\"";
      }
      out << ", \"args\": {\"scc\": " << ev.scc << ", \"tuples\": "
          << ev.tuples << "}}";
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<TraceEvent> engine_events_;
};

/// One operation's engine counters (`counter.<name>`, as EvalStats::Counters
/// names them) and its trace reduced to wait totals per span kind
/// (`span_ms.<kind>`), the median iteration span and the median drain size.
/// run.py derives the per-layer metrics from these.
void AddEngineSamples(const EvalStats& s, Samples* out) {
  for (const auto& [name, value] : s.Counters()) {
    out->Add(std::string("counter.") + name, value);
  }
  if (s.trace.empty()) return;
  std::map<std::string, double> span_ms = {
      {"park", 0.0}, {"barrier_wait", 0.0}, {"ssp_wait", 0.0}, {"dws_wait", 0.0}};
  std::vector<double> iteration_us;
  std::vector<double> drain_tuples;
  for (const TraceEvent& ev : s.trace) {
    const double ms = static_cast<double>(ev.end_ns - ev.start_ns) * 1e-6;
    if (ev.kind == TraceEventKind::kIteration) {
      iteration_us.push_back(ms * 1e3);
    } else if (ev.kind == TraceEventKind::kDrain) {
      drain_tuples.push_back(static_cast<double>(ev.tuples));
    } else if (dcdatalog::TraceEventIsSpan(ev.kind)) {
      span_ms[dcdatalog::TraceEventKindName(ev.kind)] += ms;
    }
  }
  for (const auto& [kind, ms] : span_ms) out->Add("span_ms." + kind, ms);
  out->Add("iteration_p50_us", Median(iteration_us));
  out->Add("drain_p50", Median(drain_tuples));
}

// --- Observations -------------------------------------------------------------

/// OBS file records: tag (0 = the program's result, 1 = the same result
/// with one row deliberately dropped, which the checker must reject), the
/// number of update batches applied before it, then the per-source digest.
enum : uint64_t { kProgramResult = 0, kCorrupted = 1 };

ClosureDigest DigestRelation(const Relation& rel, uint64_t n, uint64_t skip_row) {
  ClosureDigest digest(n);
  if (rel.arity() != 2) {
    digest.rows_out_of_range = rel.size();
    return digest;
  }
  for (uint64_t r = 0; r < rel.size(); ++r) {
    if (r == skip_row) continue;
    const auto row = rel.Row(r);
    digest.AddRow(static_cast<int64_t>(row[0]), static_cast<int64_t>(row[1]));
  }
  return digest;
}

void WriteDigest(std::FILE* f, uint64_t tag, uint64_t batches,
                 const ClosureDigest& d) {
  const uint64_t head[4] = {tag, batches, d.count.size(), d.rows_out_of_range};
  std::fwrite(head, sizeof(uint64_t), 4, f);
  std::fwrite(d.count.data(), sizeof(uint64_t), d.count.size(), f);
  std::fwrite(d.sum.data(), sizeof(uint64_t), d.sum.size(), f);
}

struct Record {
  uint64_t tag = 0;
  uint64_t batches = 0;
  ClosureDigest digest;
};

std::vector<Record> ReadDigests(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) Die("cannot open " + path);
  std::vector<Record> records;
  uint64_t head[4];
  while (std::fread(head, sizeof(uint64_t), 4, f) == 4) {
    Record r{head[0], head[1], ClosureDigest(head[2])};
    r.digest.rows_out_of_range = head[3];
    if (std::fread(r.digest.count.data(), sizeof(uint64_t), head[2], f) !=
            head[2] ||
        std::fread(r.digest.sum.data(), sizeof(uint64_t), head[2], f) !=
            head[2]) {
      Die("truncated observation file " + path);
    }
    records.push_back(std::move(r));
  }
  std::fclose(f);
  return records;
}

/// Records the program's result, plus — once per run — a copy with its
/// first row dropped, for the checker's self-test.
void Observe(std::FILE* f, const Relation& rel, uint64_t n, uint64_t batches,
             bool with_corrupted) {
  WriteDigest(f, kProgramResult, batches, DigestRelation(rel, n, UINT64_MAX));
  if (with_corrupted && rel.size() > 0) {
    WriteDigest(f, kCorrupted, batches, DigestRelation(rel, n, 0));
  }
}

// --- tc: the `dcd run` sequence, one operation per iteration -------------------

struct TcOp {
  std::unique_ptr<StringDict> dict = std::make_unique<StringDict>();
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  const Relation* result = nullptr;
  EvalStats stats;
  double ms = 0.0;
};

/// load EDB text -> parse + analyze -> plan -> RunPlan -> write result file.
TcOp RunTcOp(const Args& args, const EngineOptions& opts, Tracer* tracer,
             uint64_t op, Samples* layers) {
  TcOp out;
  const std::string program_path = args.Str("program");
  const std::string edges = args.Str("edges");
  const std::string result_path = args.Str("result");
  dcdatalog::Program program;
  dcdatalog::PhysicalPlan plan;
  const int64_t start = MonotonicNanos();

  const double load_ms = tracer->Time("storage.load", op, [&] {
    out.catalog->Put(Check(dcdatalog::LoadRelationFile(
                               "arc", dcdatalog::Schema::Ints(2), edges,
                               out.dict.get()),
                           "load"));
  });
  dcdatalog::ProgramAnalysis analysis;
  const double parse_ms = tracer->Time("datalog.parse", op, [&] {
    program = Check(dcdatalog::ParseProgram(ReadFile(program_path), out.dict.get()),
                    "parse");
    analysis = Check(dcdatalog::ProgramAnalysis::Analyze(program, *out.catalog),
                     "analyze");
  });
  const double plan_ms = tracer->Time("planner.plan", op, [&] {
    auto logical = Check(dcdatalog::BuildLogicalPlans(program, analysis),
                         "logical plan");
    plan = Check(dcdatalog::BuildPhysicalPlan(program, analysis, logical),
                 "physical plan");
  });
  const double eval_ms = tracer->Time("core.eval", op, [&] {
    dcdatalog::Engine engine(out.catalog.get(), opts);
    out.stats = Check(engine.RunPlan(plan), "run");
  });
  if (program.outputs.empty()) Die("program has no .output predicate");
  out.result = out.catalog->Find(program.outputs.front());
  if (out.result == nullptr) Die("no result relation");
  const double write_ms = tracer->Time("storage.write", op, [&] {
    Check(dcdatalog::WriteRelationFile(*out.result, result_path, out.dict.get()),
          "write");
  });
  out.ms = static_cast<double>(MonotonicNanos() - start) * 1e-6;

  if (layers != nullptr) {
    layers->Add("storage.load_ms", load_ms);
    layers->Add("datalog.parse_ms", parse_ms);
    layers->Add("planner.plan_ms", plan_ms);
    layers->Add("core.eval_ms", eval_ms);
    layers->Add("storage.write_ms", write_ms);
    layers->Add("storage.rows_written", static_cast<double>(out.result->size()));
    AddEngineSamples(out.stats, layers);
  }
  return out;
}

int CmdTc(const Args& args) {
  const bool trace = args.Uint("trace") != 0;
  const EngineOptions opts = EngineFromArgs(args, trace);
  const uint64_t n = args.Uint("vertices");
  const double seconds = static_cast<double>(args.Uint("seconds"));
  std::FILE* obs = std::fopen(args.Str("observe").c_str(), "wb");
  if (obs == nullptr) Die("cannot write observations");
  Tracer tracer(trace);

  // Set-up: the first, cold operation. Untimed for the op statistics. With
  // --measure 0 the process stops here; run.py starts a few such processes
  // and reports the median cold operation.
  double setup_s = 0.0;
  {
    TcOp cold = RunTcOp(args, opts, &tracer, 0, nullptr);
    setup_s = cold.ms * 1e-3;
    Observe(obs, *cold.result, n, 0, /*with_corrupted=*/true);
  }
  if (args.Uint("measure", "1") == 0) {
    std::fclose(obs);
    JsonLine out;
    out.Add("setup_s", setup_s);
    out.Print();
    return 0;
  }

  // Closed loop: one operation after another until `seconds` of wall time
  // (checks included) have passed; the checks stay outside each op's time.
  Samples layers;
  std::vector<double> op_ms;
  const dcdatalog::WallTimer wall;
  do {
    TcOp op = RunTcOp(args, opts, &tracer, op_ms.size() + 1, &layers);
    op_ms.push_back(op.ms);
    Observe(obs, *op.result, n, 0, /*with_corrupted=*/false);
    if (trace) tracer.KeepEngineTrace(op.stats);
  } while (wall.ElapsedSeconds() < seconds);
  std::fclose(obs);

  double busy_ms = 0.0;
  for (double ms : op_ms) busy_ms += ms;
  JsonLine out;
  out.Add("attempted", static_cast<double>(op_ms.size()));
  out.Add("setup_s", setup_s);
  out.Add("op_p50_ms", Median(op_ms));
  out.Add("ops_per_s", static_cast<double>(op_ms.size()) / (busy_ms * 1e-3));
  out.Add("peak_rss_mb", PeakRssMb());
  if (trace) layers.AddMediansTo(&out);
  tracer.Write(args.Str("trace-json", ""));
  out.Print();
  return 0;
}

// --- updates: incremental maintenance, one ApplyUpdates batch per operation -----

struct Incremental {
  std::unique_ptr<StringDict> dict = std::make_unique<StringDict>();
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  std::unique_ptr<dcdatalog::Engine> engine;
  dcdatalog::Program program;
  std::string output;
};

/// Set-up: load the EDB, parse, and run BeginIncremental's initial fixpoint.
Incremental BeginIncremental(const Args& args, const EngineOptions& opts,
                             Tracer* tracer, Samples* layers) {
  Incremental inc;
  const double load_ms = tracer->Time("storage.load", 0, [&] {
    inc.catalog->Put(Check(dcdatalog::LoadRelationFile(
                               "arc", dcdatalog::Schema::Ints(2),
                               args.Str("edges"), inc.dict.get()),
                           "load"));
  });
  const double parse_ms = tracer->Time("datalog.parse", 0, [&] {
    inc.program = Check(
        dcdatalog::ParseProgram(ReadFile(args.Str("program")), inc.dict.get()),
        "parse");
  });
  if (inc.program.outputs.empty()) Die("program has no .output predicate");
  inc.output = inc.program.outputs.front();
  inc.engine = std::make_unique<dcdatalog::Engine>(inc.catalog.get(), opts);
  const double eval_ms = tracer->Time("core.begin_incremental", 0, [&] {
    Check(inc.engine->BeginIncremental(inc.program), "BeginIncremental");
  });
  if (tracer->on()) {
    layers->Add("storage.load_ms", load_ms);
    layers->Add("datalog.parse_ms", parse_ms);
    layers->Add("core.eval_ms", eval_ms);
  }
  return inc;
}

bool SameDigest(const ClosureDigest& a, const ClosureDigest& b) {
  return a.count == b.count && a.sum == b.sum &&
         a.rows_out_of_range == b.rows_out_of_range;
}

/// Rounds of: set-up (load, parse, BeginIncremental), then every batch of
/// the script as one ApplyUpdates operation. Every round starts from the
/// same EDB and applies the same batches, so each run attempts whole rounds
/// of the same operations. Round 1's results go to OBS for the oracle; a
/// later round's result is written only if it differs from round 1's.
int CmdUpdates(const Args& args) {
  const bool trace = args.Uint("trace") != 0;
  const EngineOptions opts = EngineFromArgs(args, trace);
  const uint64_t n = args.Uint("vertices");
  const double seconds = static_cast<double>(args.Uint("seconds"));
  const auto script =
      Check(dcdatalog::LoadUpdateScriptFile(args.Str("script")), "script");
  std::FILE* obs = std::fopen(args.Str("observe").c_str(), "wb");
  if (obs == nullptr) Die("cannot write observations");
  Tracer tracer(trace);
  Samples layers;

  std::vector<ClosureDigest> first_round;
  auto observe = [&](const Incremental& inc, uint64_t b) {
    const Relation& rel = *inc.catalog->Find(inc.output);
    if (b == first_round.size()) {
      first_round.push_back(DigestRelation(rel, n, UINT64_MAX));
      WriteDigest(obs, kProgramResult, b, first_round.back());
      if (b == 0) WriteDigest(obs, kCorrupted, b, DigestRelation(rel, n, 0));
      return;
    }
    const ClosureDigest d = DigestRelation(rel, n, UINT64_MAX);
    if (!SameDigest(d, first_round[b])) WriteDigest(obs, kProgramResult, b, d);
  };

  std::vector<double> setup_s;
  std::vector<double> op_ms;
  std::vector<double> apply_ms;
  Incremental inc;
  const dcdatalog::WallTimer wall;
  do {
    const dcdatalog::WallTimer setup;
    inc = Incremental();  // Free the previous session before the next.
    inc = BeginIncremental(args, opts, &tracer, &layers);
    setup_s.push_back(setup.ElapsedSeconds());
    observe(inc, 0);
    for (size_t b = 0; b < script.batches.size(); ++b) {
      const uint64_t op = op_ms.size() + 1;
      EvalStats stats;
      double apply = 0.0;
      op_ms.push_back(tracer.Time("op", op, [&] {
        auto resolved = Check(dcdatalog::ResolveUpdateBatch(
                                  script.batches[b], *inc.catalog, inc.dict.get()),
                              "resolve");
        apply = tracer.Time("core.apply_updates", op, [&] {
          stats = Check(inc.engine->ApplyUpdates(resolved), "ApplyUpdates");
        });
      }));
      apply_ms.push_back(apply);
      observe(inc, b + 1);
      if (trace) {
        layers.Add("core.update_apply_ms", apply);
        AddEngineSamples(stats, &layers);
        tracer.KeepEngineTrace(stats);
      }
    }
  } while (wall.ElapsedSeconds() < seconds);
  std::fclose(obs);

  if (trace) {
    // From-scratch recompute over the round's final EDB, for
    // core.update_vs_scratch.
    std::vector<double> scratch_ms;
    for (int i = 0; i < 3; ++i) {
      Catalog fresh;
      fresh.Put(*inc.catalog->Find("arc"));
      dcdatalog::Engine engine(&fresh, opts);
      scratch_ms.push_back(tracer.Time("core.scratch_run", 0, [&] {
        Check(engine.Run(inc.program), "scratch run");
      }));
    }
    layers.Add("core.scratch_ms", Median(scratch_ms));
    layers.Add("core.update_vs_scratch", Median(apply_ms) / Median(scratch_ms));
  }

  double busy_ms = 0.0;
  for (double ms : op_ms) busy_ms += ms;
  JsonLine out;
  out.Add("attempted", static_cast<double>(op_ms.size()));
  out.Add("setup_s", Median(setup_s));
  out.Add("op_p50_ms", Median(op_ms));
  out.Add("ops_per_s", static_cast<double>(op_ms.size()) / (busy_ms * 1e-3));
  out.Add("peak_rss_mb", PeakRssMb());
  if (trace) layers.AddMediansTo(&out);
  tracer.Write(args.Str("trace-json", ""));
  out.Print();
  return 0;
}

// --- load: storage.load_ms for the serving workload's EDB -------------------------

int CmdLoad(const Args& args) {
  const auto schema = Check(dcdatalog::ParseSchemaSpec(args.Str("spec")), "spec");
  std::vector<double> ms;
  for (uint64_t i = 0; i < args.Uint("reps"); ++i) {
    StringDict dict;
    const dcdatalog::WallTimer timer;
    Check(dcdatalog::LoadRelationFile("edb", schema, args.Str("edges"), &dict),
          "load");
    ms.push_back(timer.ElapsedMillis());
  }
  JsonLine out;
  out.Add("storage.load_ms", Median(ms));
  out.Print();
  return 0;
}

// --- Checkers -------------------------------------------------------------------

/// Prints the verdict: every program result must match the oracle, and
/// every deliberately corrupted one must be rejected.
int Verdict(uint64_t checked, uint64_t selftests, const std::string& error) {
  std::printf("{\"ok\": %s, \"checked\": %llu, \"selftests\": %llu, "
              "\"error\": \"%s\"}\n",
              error.empty() ? "true" : "false",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(selftests), error.c_str());
  return error.empty() ? 0 : 1;
}

std::vector<Edge> LoadEdges(const Args& args, bool weighted) {
  std::vector<Edge> edges;
  const std::string err = ReadEdgeFile(args.Str("edges"), weighted, &edges);
  if (!err.empty()) Die(err);
  return edges;
}

/// Checks closure records against `expected[b]`, the oracle's closure after
/// b update batches.
int CheckClosures(const std::vector<Record>& records,
                  const std::vector<ClosureDigest>& expected) {
  uint64_t checked = 0;
  uint64_t selftests = 0;
  for (const Record& r : records) {
    if (r.batches >= expected.size()) {
      return Verdict(checked, selftests, "observation past the script's end");
    }
    const std::string diff = CompareClosure(expected[r.batches], r.digest);
    if (r.tag == kProgramResult) {
      if (!diff.empty()) {
        return Verdict(checked, selftests,
                       expected.size() == 1
                           ? diff
                           : "after " + std::to_string(r.batches) +
                                 " update batches: " + diff);
      }
      ++checked;
    } else {
      if (diff.empty()) {
        return Verdict(checked, selftests,
                       "self-test: a result missing one row was accepted");
      }
      ++selftests;
    }
  }
  if (checked == 0 || selftests == 0) {
    return Verdict(checked, selftests, "nothing to check");
  }
  return Verdict(checked, selftests, "");
}

int CmdCheckTc(const Args& args) {
  return CheckClosures(
      ReadDigests(args.Str("observed")),
      {ReachDigest(Graph(args.Uint("vertices"), LoadEdges(args, false)))});
}

int CmdCheckUpdates(const Args& args) {
  const uint64_t n = args.Uint("vertices");
  Graph shadow(n, LoadEdges(args, false));
  std::vector<EdgeBatch> batches;
  const std::string err = ReadEdgeScript(args.Str("script"), false, &batches);
  if (!err.empty()) Die(err);
  std::vector<ClosureDigest> expected = {ReachDigest(shadow)};
  for (const EdgeBatch& batch : batches) {
    shadow.Apply(batch);
    expected.push_back(ReachDigest(shadow));
  }
  return CheckClosures(ReadDigests(args.Str("observed")), expected);
}

/// The serving workload's log, written by run.py:
///   edge-file version V0          (the store version the EDB loaded as)
///   update V <k>  + k op lines    (the batch that produced version V)
///   query <src> <version> <rows> <k>  + k "vertex distance" lines
struct SsspLog {
  uint64_t initial_version = 0;
  std::map<uint64_t, EdgeBatch> updates;
  std::vector<SsspObservation> queries;
};

SsspLog ReadSsspLog(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  SsspLog log;
  std::string kind;
  while (in >> kind) {
    if (kind == "initial") {
      in >> log.initial_version;
    } else if (kind == "update") {
      uint64_t version = 0;
      size_t k = 0;
      in >> version >> k;
      EdgeBatch& batch = log.updates[version];
      for (size_t i = 0; i < k; ++i) {
        std::string sign;
        std::string rel;
        EdgeOp op;
        in >> sign >> rel >> op.edge.src >> op.edge.dst >> op.edge.weight;
        op.insert = sign == "+";
        batch.push_back(op);
      }
    } else if (kind == "query") {
      SsspObservation q;
      size_t k = 0;
      in >> q.source >> q.version >> q.rows >> k;
      q.dumped.resize(k);
      for (auto& [v, d] : q.dumped) in >> v >> d;
      log.queries.push_back(std::move(q));
    } else {
      Die("bad log line: " + kind);
    }
    if (!in) Die("truncated log " + path);
  }
  return log;
}

int CmdCheckSssp(const Args& args) {
  const uint64_t n = args.Uint("vertices");
  const SsspLog log = ReadSsspLog(args.Str("log"));
  if (log.queries.empty()) return Verdict(0, 0, "no queries to check");

  // Walk the versions upward once: each query is checked against the
  // shadow graph at exactly the version its session pinned.
  std::vector<size_t> order(log.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return log.queries[a].version < log.queries[b].version;
  });
  Graph shadow(n, LoadEdges(args, true));
  uint64_t version = log.initial_version;
  auto next_update = log.updates.begin();
  auto advance_to = [&](uint64_t want) {
    for (; next_update != log.updates.end() && next_update->first <= want;
         ++next_update) {
      if (next_update->first != version + 1) Die("gap in update versions");
      shadow.Apply(next_update->second);
      version = next_update->first;
    }
    if (version != want) Die("a query pinned an unknown version");
  };

  uint64_t checked = 0;
  uint64_t selftests = 0;
  for (size_t i : order) {
    const SsspObservation& q = log.queries[i];
    advance_to(q.version);
    const std::vector<int64_t> dist = ShortestDistances(shadow, q.source);
    const std::string diff = CheckSssp(dist, q);
    if (!diff.empty()) {
      return Verdict(checked, selftests,
                     "version " + std::to_string(q.version) + ": " + diff);
    }
    ++checked;
    if (i == order.front()) {
      // Self-test 1: the same result with one dumped distance off by one
      // must be rejected.
      SsspObservation off_by_one = q;
      if (off_by_one.dumped.empty()) return Verdict(checked, 0, "empty dump");
      off_by_one.dumped.back().second += 1;
      if (CheckSssp(dist, off_by_one).empty()) {
        return Verdict(checked, selftests,
                       "self-test: a distance off by one was accepted");
      }
      ++selftests;
    }
  }

  // Self-test 2: a result checked against another snapshot version than the
  // one its session pinned must be rejected. The earliest-pinned result is
  // checked against the last version, where the update stream has moved
  // the graph the most.
  const SsspObservation& early = log.queries[order.front()];
  const uint64_t last =
      log.updates.empty() ? log.initial_version : log.updates.rbegin()->first;
  if (early.version == last) {
    return Verdict(checked, selftests, "self-test: no update landed");
  }
  advance_to(last);
  if (CheckSssp(ShortestDistances(shadow, early.source), early).empty()) {
    return Verdict(checked, selftests,
                   "self-test: a result was accepted against the wrong "
                   "snapshot version");
  }
  ++selftests;
  return Verdict(checked, selftests, "");
}

/// Sources for the serving workload: `count` vertices drawn by seed among
/// those that reach at least 90% of the most any candidate reaches, so every
/// query reaches the giant component and costs about the same.
int CmdPickSources(const Args& args) {
  const uint64_t n = args.Uint("vertices");
  const uint64_t count = args.Uint("count");
  const Graph graph(n, LoadEdges(args, true));
  std::mt19937_64 rng(args.Uint("seed"));
  std::vector<std::pair<int64_t, uint64_t>> reach;  // (vertex, reached)
  for (uint64_t i = 0; i < 4 * count; ++i) {
    const int64_t v = static_cast<int64_t>(rng() % n);
    const auto dist = ShortestDistances(graph, v);
    reach.emplace_back(v, std::count_if(dist.begin(), dist.end(), [](int64_t d) {
                         return d != kUnreachable;
                       }));
  }
  uint64_t best = 0;
  for (const auto& [v, r] : reach) best = std::max(best, r);
  uint64_t picked = 0;
  for (const auto& [v, r] : reach) {
    if (picked == count) break;
    if (r * 10 >= best * 9) {
      std::printf("%lld %llu\n", static_cast<long long>(v),
                  static_cast<unsigned long long>(r));
      ++picked;
    }
  }
  return picked == count ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) Die("usage: see the header of harness.cc");
  const std::string cmd = argv[1];
  const Args args = ParseArgs(argc, argv, 2);
  if (cmd == "tc") return CmdTc(args);
  if (cmd == "updates") return CmdUpdates(args);
  if (cmd == "load") return CmdLoad(args);
  if (cmd == "check-tc") return CmdCheckTc(args);
  if (cmd == "check-updates") return CmdCheckUpdates(args);
  if (cmd == "check-sssp") return CmdCheckSssp(args);
  if (cmd == "pick-sources") return CmdPickSources(args);
  Die("unknown command: " + cmd);
}
