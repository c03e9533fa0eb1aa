// The three single-machine workloads: matmul-l1 and spmv-mesh (a detailed
// run from cold caches, the Fig. 3 measurement) and ffwd-roi (functional
// fast-forward with cache warm-up, a checkpoint written to memory and
// restored, then the region of interest in detailed mode).
//
// One repetition resolves one design point through the calls coyote_sim
// makes: workload generation and program build (kernels), Simulator
// construction and program load (core), Simulator::run (core -> iss,
// simfw, memhier), and for ffwd-roi ckpt::fast_forward, write_checkpoint
// and restore_checkpoint. Repetitions continue until the run's time is
// used up; run.py reports their medians. Every measured section is
// bracketed by readings of the host reference (Bench::mark/lap), so run.py
// can also express it at a nominal host speed.
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>

#include "bench.h"
#include "campaign/memo.h"
#include "ckpt/checkpoint.h"
#include "ckpt/fastforward.h"
#include "common/error.h"
#include "core/config_io.h"
#include "kernels/kernels.h"
#include "kernels/workloads.h"

namespace perfbench {

namespace {

using coyote::core::RunResult;
using coyote::core::SimConfig;
using coyote::core::Simulator;
namespace kernels = coyote::kernels;

struct SimSpec {
  std::string kernel;
  std::uint32_t cores = 1;
  std::uint64_t size = 0;
  /// Machine overrides, in config_io's dotted-key language.
  std::map<std::string, std::string> overrides;
  bool ffwd_roi = false;
};

SimSpec spec_for(const Options& options) {
  SimSpec spec;
  const bool tiny = options.tiny;
  if (options.workload == "matmul-l1") {
    // Fig. 3's 16-core point with an L1D that holds the working set.
    spec.kernel = "matmul_scalar";
    spec.cores = tiny ? 4 : 16;
    spec.size = tiny ? 16 : 128;
    spec.overrides = {{"core.l1d_kb", "512"}};
  } else if (options.workload == "spmv-mesh") {
    // A multi-MB CSR matrix streamed through small coherent caches over a
    // contended mesh.
    spec.kernel = "spmv_scalar";
    spec.cores = tiny ? 4 : 32;
    spec.size = tiny ? 512 : 16384;
    spec.overrides = {{"l2.coherence", "mesi"},
                      {"noc.model", "mesh"},
                      {"core.l1d_kb", "8"}};
  } else {
    // The A8 machine: fast-forward most of a 64-core coherent matmul with a
    // SMARTS-style warm-up window, then run the tail (about 30k
    // instructions per core) in detail.
    spec.kernel = "matmul_scalar";
    spec.cores = tiny ? 4 : 64;
    spec.size = tiny ? 24 : 128;
    spec.overrides = {{"l2.coherence", "mesi"},
                      {"noc.model", "mesh"},
                      {"mc.model", "dram"},
                      {"core.l1d_kb", "8"},
                      {"l2.size_kb", "64"},
                      {"ckpt.ffwd_instructions", tiny ? "20000" : "200000"},
                      {"ckpt.warmup_window", tiny ? "5000" : "100000"}};
    spec.ffwd_roi = true;
  }
  return spec;
}

SimConfig config_for(const SimSpec& spec, std::uint64_t seed) {
  coyote::simfw::ConfigMap map;
  map.set("topo.cores", std::to_string(spec.cores));
  map.set("workload.kernel", spec.kernel);
  map.set("workload.size", std::to_string(spec.size));
  map.set("workload.seed", std::to_string(seed));
  for (const auto& [key, value] : spec.overrides) map.set(key, value);
  return coyote::core::config_from_map(map);
}

/// A generated workload: installs itself into simulated memory and checks
/// a finished machine's output against the host-side reference.
struct Generated {
  kernels::Program program;
  std::function<void(coyote::iss::SparseMemory&)> install;
  std::function<double(const coyote::iss::SparseMemory&)> max_error;
};

double max_abs_error(const std::vector<double>& expected,
                     const std::vector<double>& actual) {
  if (expected.size() != actual.size()) return INFINITY;
  double err = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    err = std::fmax(err, std::fabs(expected[i] - actual[i]));
  }
  return err;
}

/// The menu's generation recipe (kernels::build_named_kernel) split in two
/// so generation and program build are timed apart.
Generated generate(const SimSpec& spec, std::uint64_t seed, Tracer& tracer,
                   double& generate_s, double& build_s) {
  Generated out;
  Span gen(tracer, "kernels.generate");
  if (spec.kernel == "matmul_scalar") {
    auto wl = std::make_shared<kernels::MatmulWorkload>(
        kernels::MatmulWorkload::generate(spec.size, seed));
    generate_s = gen.stop();
    Span build(tracer, "kernels.build");
    out.program = kernels::build_matmul_scalar(*wl, spec.cores);
    build_s = build.stop();
    out.install = [wl](coyote::iss::SparseMemory& m) { wl->install(m); };
    const auto reference = std::make_shared<std::vector<double>>();
    out.max_error = [wl, reference](const coyote::iss::SparseMemory& m) {
      if (reference->empty()) *reference = wl->reference();
      return max_abs_error(*reference, wl->result(m));
    };
  } else {
    auto wl = std::make_shared<kernels::SpmvWorkload>(
        kernels::SpmvWorkload::generate(
            kernels::CsrMatrix::random(spec.size, spec.size, 16, seed),
            seed + 1));
    generate_s = gen.stop();
    Span build(tracer, "kernels.build");
    out.program = kernels::build_spmv_scalar(*wl, spec.cores);
    build_s = build.stop();
    out.install = [wl](coyote::iss::SparseMemory& m) { wl->install(m); };
    const auto reference = std::make_shared<std::vector<double>>();
    out.max_error = [wl, reference](const coyote::iss::SparseMemory& m) {
      if (reference->empty()) *reference = wl->reference();
      return max_abs_error(*reference, wl->result(m));
    };
  }
  return out;
}

constexpr double kTolerance = 1e-12;
/// Short measured sections (the functional pass, memo replays) repeat until
/// they have taken this long, so one reading of the host covers them.
constexpr double kMinSection = 0.25;

std::uint64_t nonzero_exits(const RunResult& run) {
  std::uint64_t n = 0;
  for (std::int64_t code : run.exit_codes) n += code != 0;
  return n;
}

/// The simulated quantities that must repeat exactly between repetitions
/// (and between traced and untraced ones).
std::vector<double> fingerprint(const SimCounts& c) {
  return {static_cast<double>(c.cycles), static_cast<double>(c.instructions),
          static_cast<double>(c.events_fired), c.l2_accesses, c.l2_misses,
          c.mc_reads, c.noc_flits, c.noc_wait_cycles, c.raw_stall_cycles};
}

void record_counts(Result& result, const SimCounts& c) {
  const double kinstr = static_cast<double>(c.instructions) / 1000.0;
  const double lookups = c.dbb_hits + c.dbb_misses;
  result.counts["core.sim_cycles"] = static_cast<double>(c.cycles);
  result.counts["core.instructions"] = static_cast<double>(c.instructions);
  result.counts["core.ipc"] = c.cycles ? static_cast<double>(c.instructions) /
                                             static_cast<double>(c.cycles)
                                       : 0.0;
  result.counts["iss.dbb_hit_ratio"] = lookups ? c.dbb_hits / lookups : 0.0;
  result.counts["iss.dbb_builds"] = c.dbb_misses;
  result.counts["iss.dbb_invalidations"] = c.dbb_invalidations;
  result.counts["iss.l1d_misses_per_kinstr"] = c.l1d_misses / kinstr;
  result.counts["iss.raw_stall_cycles"] = c.raw_stall_cycles;
  result.counts["iss.coh_invalidations"] = c.coh_invalidations;
  result.counts["simfw.events_fired"] = static_cast<double>(c.events_fired);
  result.counts["simfw.events_per_kinstr"] =
      static_cast<double>(c.events_fired) / kinstr;
  result.counts["memhier.l2_accesses_per_kinstr"] = c.l2_accesses / kinstr;
  result.counts["memhier.l2_miss_ratio"] =
      c.l2_accesses ? c.l2_misses / c.l2_accesses : 0.0;
  result.counts["memhier.mc_reads"] = c.mc_reads;
  result.counts["memhier.noc_messages"] = c.noc_messages;
  result.counts["memhier.noc_flits"] = c.noc_flits;
  result.counts["memhier.noc_wait_cycles"] = c.noc_wait_cycles;
}

void record_pins(Result& result, const SimCounts& c, const RunResult& run) {
  result.pins["cycles"] = static_cast<double>(c.cycles);
  result.pins["instructions"] = static_cast<double>(c.instructions);
  result.pins["events_fired"] = static_cast<double>(c.events_fired);
  result.pins["l2_accesses"] = c.l2_accesses;
  result.pins["noc_flits"] = c.noc_flits;
  result.pins["all_exited"] = run.all_exited ? 1.0 : 0.0;
  result.pins["nonzero_exit_codes"] = static_cast<double>(nonzero_exits(run));
}

/// Replays the point's own result record from the campaign memo store —
/// the path a memo-warm campaign takes for this design point.
class MemoReplay {
 public:
  static constexpr int kLoads = 256;

  MemoReplay(const std::string& dir, const SimConfig& config,
             const RunResult& run)
      : store_(dir) {
    point_.config = coyote::core::config_to_map(config);
    point_.ok = true;
    point_.attempts = 1;
    point_.run = run;
    key_ = coyote::core::config_map_hash(point_.config);
    store_.store(key_, point_);
  }

  /// Loads the record kLoads times; returns the seconds taken, or a
  /// negative value if any load missed or differs from what was stored.
  double time_loads(Tracer& tracer) {
    Span span(tracer, "campaign.memo_replay");
    bool ok = true;
    for (int i = 0; i < kLoads; ++i) {
      coyote::sweep::PointResult loaded;
      ok = ok && store_.try_load(key_, point_.config, loaded) &&
           loaded.run.cycles == point_.run.cycles &&
           loaded.run.instructions == point_.run.instructions;
    }
    span.count("loads", kLoads);
    const double seconds = span.stop();
    return ok ? seconds : -1.0;
  }

 private:
  coyote::campaign::MemoStore store_;
  coyote::sweep::PointResult point_;
  std::uint64_t key_ = 0;
};

class SimBench : public Bench {
 public:
  explicit SimBench(const Options& options)
      : Bench(options),
        spec_(spec_for(options)),
        config_(config_for(spec_, options.seed)) {}

  Result run() {
    if (spec_.ffwd_roi) {
      uninterrupted_roi();
      return repeat([this](int) { ffwd_roi_rep(); });
    }
    return repeat([this](int) { detailed_rep(); });
  }

 private:
  struct Setup {
    Generated generated;
    std::unique_ptr<Simulator> sim;
    double generate_s = 0.0;
    double build_s = 0.0;
    double construct_s = 0.0;
    double load_s = 0.0;
    double seconds() const {
      return generate_s + build_s + construct_s + load_s;
    }
  };

  Setup setup() {
    Setup s;
    s.generated =
        generate(spec_, options_.seed, tracer_, s.generate_s, s.build_s);
    Span construct(tracer_, "core.construct");
    s.sim = std::make_unique<Simulator>(config_);
    s.construct_s = construct.stop();
    Span load(tracer_, "core.load");
    s.generated.install(s.sim->memory());
    s.sim->load_program(s.generated.program.base, s.generated.program.words,
                        s.generated.program.entry);
    s.load_s = load.stop();
    return s;
  }

  void record_setup(const Setup& s) {
    add("kernels.generate_s", s.generate_s);
    add("kernels.build_s", s.build_s);
    add("core.construct_s", s.construct_s);
    add("core.load_s", s.load_s);
  }

  /// Simulator::run under a core.run span, with the simulated counts of
  /// the finished machine attached at the same boundary.
  RunResult timed_run(Simulator& sim, double& seconds) {
    Span span(tracer_, "core.run");
    RunResult run = sim.run();
    seconds = span.stop();
    span.count("cycles", static_cast<double>(run.cycles));
    span.count("instructions", static_cast<double>(run.instructions));
    span.count("events_fired",
               static_cast<double>(sim.scheduler().events_fired()));
    return run;
  }

  /// Checks one finished detailed simulation and records its counts; the
  /// first one becomes the reference the later repetitions must equal.
  void check_detailed(Op& op, Simulator& sim, const RunResult& run,
                      const Generated& generated) {
    const SimCounts counts = read_counts(sim, run);
    op.check("detailed run exits cleanly",
             run.all_exited && !run.hit_cycle_limit && nonzero_exits(run) == 0,
             "all_exited=" + std::to_string(run.all_exited));
    const double err = generated.max_error(sim.memory());
    op.check("detailed result matches host reference", err <= kTolerance,
             "max_abs_error=" + num(err));
    if (reference_.empty()) {
      reference_ = fingerprint(counts);
      record_counts(result_, counts);
      record_pins(result_, counts, run);
    } else {
      op.check(options_.trace
                   ? "repetitions (traced and untraced) simulate identically"
                   : "repetitions simulate identically",
               fingerprint(counts) == reference_);
    }
  }

  /// Replays the point's stored record from the memo store, in batches,
  /// for at least kMinSection seconds.
  void replay_point(const RunResult& run) {
    if (!memo_) {
      const std::string dir = options_.work_dir + "/memo-" + options_.workload;
      std::filesystem::remove_all(dir);
      memo_ = std::make_unique<MemoReplay>(dir, config_, run);
    }
    const double start = mark();
    double seconds = 0.0;
    int loads = 0;
    bool ok = true;
    while (ok && seconds < kMinSection) {
      Op op(result_);
      const double batch = memo_->time_loads(tracer_);
      ok = op.check("memo replay returns the stored point", batch > 0.0);
      seconds += batch;
      loads += MemoReplay::kLoads;
    }
    const Section section = lap(start);
    if (ok) add_rate("replay_points_per_s", loads / seconds, section);
  }

  /// The same program fast-forwarded to exit, warming the caches and the
  /// directory functionally: the A8 lever on this workload, and an oracle
  /// that never touches the timing model. Warming keeps the pass's host
  /// time on the simulator's own work; without it the pass mostly streams
  /// the inputs through the host's shared cache, whose speed swings by
  /// half between runs here. Repeated for at least kMinSection seconds.
  void functional_passes(const Generated& generated, const RunResult& run) {
    SimConfig functional = config_;
    functional.ffwd_instructions = ~std::uint64_t{0};
    functional.ffwd_warmup = true;
    functional.ffwd_stop_at_roi = false;
    const double start = mark();
    double seconds = 0.0;
    double instructions = 0.0;
    int passes = 0;
    while (seconds < kMinSection) {
      Op op(result_);
      Simulator sim(functional);
      generated.install(sim.memory());
      sim.load_program(generated.program.base, generated.program.words,
                       generated.program.entry);
      Span span(tracer_, "ckpt.fast_forward");
      const coyote::ckpt::FfwdResult ffwd = coyote::ckpt::fast_forward(sim);
      span.count("instructions", static_cast<double>(ffwd.instructions));
      seconds += span.stop();
      instructions += static_cast<double>(ffwd.instructions);
      ++passes;
      op.check("functional pass runs to exit", ffwd.all_exited);
      const double err = generated.max_error(sim.memory());
      op.check("functional result matches host reference", err <= kTolerance,
               "max_abs_error=" + num(err));
      op.check("functional and detailed passes retire the same instructions",
               ffwd.instructions == run.instructions,
               std::to_string(ffwd.instructions) + " vs " +
                   std::to_string(run.instructions));
      result_.counts["ckpt.ffwd_instructions"] =
          static_cast<double>(ffwd.instructions);
    }
    const Section section = lap(start);
    add("ckpt.ffwd_s", seconds / passes);
    add_rate("ffwd_mips", instructions / seconds / 1e6, section);
  }

  void detailed_rep() {
    const double start = mark();
    Setup s = setup();
    double run_s = 0.0;
    const RunResult run = timed_run(*s.sim, run_s);
    const Section section = lap(start);
    {
      Op op(result_);
      check_detailed(op, *s.sim, run, s.generated);
    }
    record_setup(s);
    add_time("setup_s", s.seconds(), section);
    add("core.run_s", run_s);
    add_rate("host_mips", static_cast<double>(run.instructions) / run_s / 1e6,
             section);
    add("e2e_s", s.seconds() + run_s);
    add_rate("points_per_s", 1.0 / (s.seconds() + run_s), section);
    s.sim.reset();

    functional_passes(s.generated, run);
    replay_point(run);
  }

  /// The oracle for every restored ROI, made once before the timed
  /// repetitions: the same machine fast-forwarded and then run to the end
  /// without a checkpoint.
  void uninterrupted_roi() {
    Setup s = setup();
    coyote::ckpt::fast_forward(*s.sim);
    Span oracle(tracer_, "bench.uninterrupted_roi");
    oracle_run_ = s.sim->run();
    oracle_stats_ = simulated_stats(*s.sim);
  }

  void ffwd_roi_rep() {
    const double start = mark();
    Setup s = setup();
    Span ffwd_span(tracer_, "ckpt.fast_forward");
    const coyote::ckpt::FfwdResult ffwd = coyote::ckpt::fast_forward(*s.sim);
    ffwd_span.count("instructions", static_cast<double>(ffwd.instructions));
    const double ffwd_s = ffwd_span.stop();
    const Section ffwd_section = lap(start);

    std::stringstream image;
    Span write_span(tracer_, "ckpt.write");
    coyote::ckpt::write_checkpoint(*s.sim, spec_.kernel, image);
    const double write_s = write_span.stop();
    const double bytes = static_cast<double>(image.str().size());
    s.sim.reset();

    Span restore_span(tracer_, "ckpt.restore");
    std::unique_ptr<Simulator> sim = coyote::ckpt::restore_checkpoint(image);
    const double restore_s = restore_span.stop();
    image.str(std::string());

    double run_s = 0.0;
    const RunResult run = timed_run(*sim, run_s);
    const Section roi_section = lap(ffwd_section.end);
    const Section whole{start, roi_section.end};

    Op op(result_);
    op.check("fast-forward stops before the program ends", !ffwd.all_exited);
    check_detailed(op, *sim, run, s.generated);
    op.check("restored ROI equals the uninterrupted run",
             simulated_stats(*sim) == oracle_stats_ &&
                 run.cycles == oracle_run_.cycles &&
                 run.instructions == oracle_run_.instructions &&
                 run.exit_codes == oracle_run_.exit_codes);

    // Set-up spans both sections: generation to load in the first,
    // checkpoint write and restore in the second.
    const double setup_s = s.seconds() + write_s + restore_s;
    record_setup(s);
    add_time("setup_s", setup_s, whole);
    add("ckpt.ffwd_s", ffwd_s);
    add("ckpt.write_s", write_s);
    add("ckpt.restore_s", restore_s);
    add("core.run_s", run_s);
    add_rate("ffwd_mips", static_cast<double>(ffwd.instructions) / ffwd_s / 1e6,
             ffwd_section);
    add_rate("host_mips", static_cast<double>(run.instructions) / run_s / 1e6,
             roi_section);
    add("e2e_s", setup_s + ffwd_s + run_s);
    add_rate("points_per_s", 1.0 / (setup_s + ffwd_s + run_s), whole);
    result_.counts["ckpt.ffwd_instructions"] =
        static_cast<double>(ffwd.instructions);
    result_.counts["ckpt.bytes"] = bytes;
    replay_point(run);
  }

  SimSpec spec_;
  SimConfig config_;
  std::vector<double> reference_;
  std::map<std::string, double> oracle_stats_;
  RunResult oracle_run_;
  std::unique_ptr<MemoReplay> memo_;
};

}  // namespace

Result run_sim_workload(const Options& options) {
  return SimBench(options).run();
}

}  // namespace perfbench
