// Suite benchmark program: times the profiler from ir::Module to full_report
// over one workload's set of mini-ISA programs (one "pass"), on inputs
// drawn from a seed, and checks every report it produces. perfbench/run.py
// builds this binary, runs it, and turns its raw samples into metrics.
//
//   suite_bench --workload W --seed N --seconds S --trace 0|1 [--setup-only]
//
// Set-up builds the workload's modules from the seed and runs one warm-up
// pass: the cold time to a first report for every program. The measured
// phase then repeats passes for S seconds. Every profile runs serially
// (threads = 1), the reference configuration the 19-program suite numbers
// are quoted in; thread-count effects are far noisier than the bounds this
// benchmark holds changes to. With --trace 1 the pipeline runs
// with pp::obs on, and each pass also yields per-stage span times and
// pipeline counters (its pass times include the tracing overhead). After
// the measured phase every program is checked against references that do
// not share the fast paths under test: a plain VM run (exit value, retired
// instructions) and a profile with path compaction off (byte-identical
// full_report).
//
// The last line on stdout is one JSON object:
//   --setup-only  {"setup_s": x, "attempted": n, "failed": n}
//   otherwise     {"setup_s": x, "attempted": n, "failed": n,
//                  "program_ms": {"<program>": [...], ...},
//                  "layers": {"<layer>": [...], ...}}
// with one entry per measured pass in every list (layers only with
// --trace 1). Failures are described on stderr.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "vm/vm.hpp"
#include "workloads/util.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace pp;
using Clock = std::chrono::steady_clock;

struct Suite {
  const char* name;
  std::vector<std::string> programs;
  bool apply_transforms;
};

// "feedback" and "ddg" split the mini-Rodinia programs by the stage that
// dominates their serial pass: scheduler LPs and the oracle inside
// full_report (half or more of the pass), or stage 2 -- VM replay, shadow
// memory and online folding. Together they cover the suite except
// particlefilter, whose scheduler time jumps from 0.3 to ~55 ms on about a
// third of the seeded data draws; that cliff would swamp the spread of
// whichever workload held it. "scaled" runs the case studies at larger
// sizes (long loop runs for path compaction and the folder, an oracle-heavy
// feedback stage); "transform" closes the loop on every program whose
// profile justifies an interchange, tiling or fusion.
const std::vector<Suite>& suites() {
  static const std::vector<Suite> kSuites = {
      {"feedback",
       {"backprop", "heartwall", "hotspot", "hotspot3D", "myocyte", "nw",
        "pathfinder", "srad_v1", "srad_v2", "streamcluster"},
       false},
      {"ddg",
       {"bfs", "b+tree", "cfd", "kmeans", "lavaMD", "leukocyte", "lud", "nn"},
       false},
      {"scaled",
       {"gemsfdtd", "backprop_large", "backprop_large_transformed"},
       false},
      {"transform",
       {"backprop", "b+tree", "kmeans", "leukocyte", "nw", "srad_v1",
        "srad_v2", "streamcluster"},
       true},
  };
  return kSuites;
}

// The paper's case studies at larger problem sizes than their defaults:
// GemsFDTD (Table 4) and backprop before and after the hand-applied
// interchange (Table 3). Every other name is a mini-Rodinia program.
ir::Module make_program(const std::string& name) {
  if (name == "gemsfdtd") return workloads::make_gemsfdtd(16, 16, 16);
  if (name == "backprop_large") return workloads::make_backprop(32, 96);
  if (name == "backprop_large_transformed")
    return workloads::make_backprop_transformed(32, 96);
  return workloads::make_rodinia(name).module;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- seeded inputs ---------------------------------------------------------

// A word holding 0.0 or a positive double in [2^-31, 1): the shape of the
// workloads' random_doubles() data. No integer array (offsets, keys,
// neighbour lists, dimensions) comes near these bit patterns.
bool is_unit_double(i64 w) {
  if (w == 0) return true;
  const u64 top = static_cast<u64>(w) >> 52;  // sign bit + exponent
  return top >= 0x3E0 && top <= 0x3FE;
}

// Re-draws every initializer array of unit-interval doubles from the seed,
// with the same distribution the workload generators use. Integer arrays and
// hand-set constants keep their values, so every program stays in bounds,
// while data-dependent control (argmin updates, resampling scans, search
// paths) follows the new data.
void redraw_unit_doubles(ir::Module& m, u64 seed) {
  workloads::Lcg rng(seed);
  for (ir::Global& g : m.globals) {
    bool unit = false;
    for (i64 w : g.init_words) {
      if (!is_unit_double(w)) {
        unit = false;
        break;
      }
      unit = unit || w != 0;
    }
    if (!unit) continue;
    for (i64& w : g.init_words) w = rng.unit_double_bits();
  }
}

// --- per-layer accounting --------------------------------------------------

// pp::obs span and counter names -> per-layer metric names. Span times are
// summed over every span of that name.
const std::vector<std::pair<const char*, const char*>>& span_layers() {
  static const std::vector<std::pair<const char*, const char*>> kSpans = {
      {"stage:verify", "verify_ms"},     {"stage:control", "control_ms"},
      {"stage:ddg", "ddg_ms"},           {"stage:fold", "fold_ms"},
      {"stage:transform", "transform_ms"}, {"stage:feedback", "feedback_ms"},
      {"sched:groups", "scheduler_ms"},  {"oracle:run", "oracle_ms"},
  };
  return kSpans;
}

const std::vector<std::pair<const char*, const char*>>& counter_layers() {
  static const std::vector<std::pair<const char*, const char*>> kCounters = {
      {"vm.instructions", "vm_instructions"},
      {"vm.path_hits", "path_hits"},
      {"vm.path_bailouts", "path_bailouts"},
      {"vm.events_compressed", "path_events_compressed"},
      {"ddg.dependences", "ddg_dependences"},
      {"ddg.shadow_pages", "shadow_pages"},
      {"fold.pieces", "fold_pieces"},
      {"fold.dep_edges", "fold_dep_edges"},
      {"fold.cache_hits", "fold_cache_hits"},
      {"fold.cache_misses", "fold_cache_misses"},
      {"sched.groups", "sched_groups"},
      {"oracle.regions_checked", "oracle_regions"},
  };
  return kCounters;
}

using Layers = std::map<std::string, double>;
using Samples = std::map<std::string, std::vector<double>>;

Layers empty_layers() {
  Layers l;
  for (const char* n : {"profile_ms", "report_ms", "traced_pass_ms",
                        "transforms_applied"})
    l[n] = 0;
  for (const auto& [span, name] : span_layers()) l[name] = 0;
  for (const auto& [counter, name] : counter_layers()) l[name] = 0;
  return l;
}

void add_observed(const obs::Session& ob, Layers& l) {
  for (const obs::SpanRec& s : ob.merged_spans())
    for (const auto& [span, name] : span_layers())
      if (std::strcmp(s.name, span) == 0)
        l[name] += static_cast<double>(s.dur_ns) / 1e6;
  const auto counters = ob.counters();
  for (const auto& [counter, name] : counter_layers()) {
    auto it = counters.find(counter);
    if (it != counters.end()) l[name] += static_cast<double>(it->second.value);
  }
}

// --- the benchmark ---------------------------------------------------------

struct Program {
  std::string name;
  ir::Module module;
  u64 report_fp = 0;  ///< fingerprint of the set-up pass's report
  i64 exit_value = 0;
  u64 instructions = 0;
};

class Bench {
 public:
  Bench(const Suite& suite, u64 seed, bool observe)
      : suite_(suite), seed_(seed), observe_(observe) {}

  /// Builds the modules and runs the warm-up pass; returns its seconds.
  double setup() {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::string> order = suite_.programs;
    workloads::Lcg rng(seed_);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next() % i]);
    for (std::size_t i = 0; i < order.size(); ++i) {
      Program p;
      p.name = order[i];
      p.module = make_program(p.name);
      redraw_unit_doubles(p.module, seed_ * 1000003u + i);
      programs_.push_back(std::move(p));
    }
    for (Program& p : programs_) {
      core::ProfileResult r;
      const std::string report = profile(p, options(), nullptr, &r);
      p.report_fp = obs::fnv1a(report);
      p.exit_value = r.exit_value;
      p.instructions = r.stats.instructions;
    }
    return ms_between(t0, Clock::now()) / 1e3;
  }

  /// One timed pass: appends each program's Module -> report milliseconds
  /// to `program_ms`.
  void pass(Layers* layers, Samples& program_ms) {
    double total = 0;
    for (Program& p : programs_) {
      const Clock::time_point t0 = Clock::now();
      const std::string report = profile(p, options(), layers);
      const double ms = ms_between(t0, Clock::now());
      program_ms[p.name].push_back(ms);
      total += ms;
      if (obs::fnv1a(report) != p.report_fp)
        fail(p, "report differs from the set-up pass");
    }
    if (layers != nullptr) (*layers)["traced_pass_ms"] = total;
  }

  /// Checks every program against the reference runs (untimed).
  void check_references() {
    for (Program& p : programs_) {
      ++attempted_;
      vm::Machine machine(p.module);
      const vm::RunResult plain = machine.run("main");
      if (plain.truncated || plain.exit_value != p.exit_value ||
          plain.stats.instructions != p.instructions)
        fail(p, "profile disagrees with a plain VM run");

      core::PipelineOptions measured = options();
      measured.observe = false;
      core::PipelineOptions reference = measured;
      reference.path_compaction = false;
      const std::string want = profile(p, reference, nullptr);
      const std::string got =
          observe_ ? profile(p, measured, nullptr) : std::string();
      if (observe_ ? got != want : obs::fnv1a(want) != p.report_fp)
        fail(p, "report differs from the uncompacted reference");
    }
  }

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

 private:
  core::PipelineOptions options() const {
    core::PipelineOptions o;
    o.threads = 1;
    o.apply_transforms = suite_.apply_transforms;
    o.observe = observe_;
    return o;
  }

  // One Module -> full_report run, counted as attempted; a truncated,
  // diagnosed or degraded profile, or a transformation that changed program
  // output, counts as failed.
  std::string profile(Program& p, const core::PipelineOptions& opts,
                      Layers* layers, core::ProfileResult* out = nullptr) {
    ++attempted_;
    const Clock::time_point t0 = Clock::now();
    core::Pipeline pipe(p.module);
    core::ProfileResult r = pipe.run(opts);
    const Clock::time_point t1 = Clock::now();
    std::string report = core::full_report(r);
    const Clock::time_point t2 = Clock::now();
    if (r.truncated || !r.diagnostics.empty() ||
        r.program.degraded_statements != 0)
      fail(p, "profile truncated or degraded");
    if (opts.apply_transforms) {
      bool identical = r.transform.ran && r.transform.ok();
      for (const transform::Applied& a : r.transform.applied)
        identical = identical && a.output_identical;
      if (!identical) fail(p, "transformation changed program output");
    }
    if (layers != nullptr) {
      (*layers)["profile_ms"] += ms_between(t0, t1);
      (*layers)["report_ms"] += ms_between(t1, t2);
      (*layers)["transforms_applied"] +=
          static_cast<double>(r.transform.applied.size());
      if (r.obs != nullptr) add_observed(*r.obs, *layers);
    }
    if (out != nullptr) *out = std::move(r);
    return report;
  }

  void fail(const Program& p, const char* what) {
    ++failed_;
    std::fprintf(stderr, "suite_bench: %s (%s): %s\n", suite_.name,
                 p.name.c_str(), what);
  }

  const Suite& suite_;
  u64 seed_;
  bool observe_;
  std::vector<Program> programs_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

bool parse_u64(const char* text, u64* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-')
    return false;
  *out = v;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: suite_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--setup-only]\n  workloads:");
  for (const Suite& s : suites()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

void print_samples(const char* key, const Samples& samples) {
  std::printf(", \"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, v] : samples) {
    std::printf("%s\"%s\": [", sep, name.c_str());
    for (std::size_t i = 0; i < v.size(); ++i)
      std::printf("%s%.6f", i > 0 ? ", " : "", v[i]);
    std::printf("]");
    sep = ", ";
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Suite* suite = nullptr;
  u64 seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      const char* name = argv[++i];
      for (const Suite& s : suites())
        if (std::strcmp(s.name, name) == 0) suite = &s;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      have_seed = parse_u64(argv[++i], &seed);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      if (!parse_u64(argv[++i], &seconds)) return usage();
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      if (!parse_u64(argv[++i], &trace)) return usage();
    } else if (std::strcmp(argv[i], "--setup-only") == 0) {
      setup_only = true;
    } else {
      return usage();
    }
  }
  if (suite == nullptr || !have_seed || trace > 1 ||
      (seconds == 0 && !setup_only))
    return usage();

  Bench bench(*suite, seed, trace == 1);
  const double setup_s = bench.setup();
  if (setup_only) {
    std::printf("{\"setup_s\": %.6f, \"attempted\": %llu, \"failed\": %llu}\n",
                setup_s, static_cast<unsigned long long>(bench.attempted()),
                static_cast<unsigned long long>(bench.failed()));
    return 0;
  }

  Samples program_ms, layers;
  const Clock::time_point start = Clock::now();
  const double budget_ms = static_cast<double>(seconds) * 1e3;
  do {
    Layers l = empty_layers();
    bench.pass(trace == 1 ? &l : nullptr, program_ms);
    if (trace == 1)
      for (const auto& [name, v] : l) layers[name].push_back(v);
  } while (ms_between(start, Clock::now()) < budget_ms);
  bench.check_references();

  std::printf("{\"setup_s\": %.6f, \"attempted\": %llu, \"failed\": %llu",
              setup_s, static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed()));
  print_samples("program_ms", program_ms);
  print_samples("layers", layers);
  std::printf("}\n");
  return 0;
}
