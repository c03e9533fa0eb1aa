// The campaign workload: the shape of `coyote_campaign run --workers=2`.
// A loopback Broker in this process serves a grid of small menu-kernel
// points to two worker processes (this binary, forked and exec'd like the
// CLI's) that each run a campaign::Worker with jobs=1.
//
// Each run starts with one persisted pass: `state_dir` and `memo_dir` set,
// so every result is written as a durable .done and .memo record. The
// repeated, measured passes then serve the grid cold without a state
// directory, and replay it from that memo store. Every durable record costs
// an fsync of the file and its directory, and on a shared disk those
// latencies swing the whole pass by a factor of two between runs; keeping
// them out of the repeated passes is what makes points_per_s and
// replay_points_per_s steady enough to gate. The persisted pass is still
// timed and checked (campaign.persist_pass_s, campaign.persist_bytes).
// Every repetition runs the same passes: one cold, kReplays memo-warm, the
// in-process SweepEngine oracle and the functional pass, each bracketed by
// readings of the host reference (Bench::mark/lap).
//
// A worker session succeeds only if its Worker::run returns, i.e. it heard
// SHUTDOWN{kCampaignComplete}. Once serve() has returned the table there is
// no broker left for a worker to complete with, so a worker still running
// kTailCap (0.25 s; a healthy worker exits within 2 ms) after that is
// stopped and counted as a failed session, with its tail recorded as
// kTailCap (a lower bound). Whether a memo-warm session fails depends on
// how the two workers' connections interleave with the broker's linger
// (the defect described in NOTES.md), so session outcomes are reported
// (campaign.worker_failures and the session counts run.py prints), not
// counted as failed operations: the operation counts of two runs at the
// same seed must agree.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "campaign/broker.h"
#include "campaign/worker.h"
#include "ckpt/fastforward.h"
#include "core/config_io.h"
#include "kernels/program_menu.h"
#include "sweep/sweep.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using coyote::campaign::Broker;
using coyote::campaign::Worker;
using coyote::sweep::SweepReport;
using coyote::sweep::SweepSpec;

constexpr unsigned kWorkers = 2;
constexpr double kTailCap = 0.25;
/// Memo-warm replays per repetition.
constexpr int kReplays = 2;

SweepSpec grid_for(const Options& options) {
  SweepSpec spec;
  spec.kernel = "matmul_scalar";
  spec.seed = options.seed;
  if (options.tiny) {
    spec.size = 8;
    spec.axes = {coyote::sweep::axis_from_token("topo.cores=1,2"),
                 coyote::sweep::axis_from_token("mc.latency=50,100")};
  } else {
    // 4 x 2 x 3 x 4 x 2 = 192 points.
    spec.size = 24;
    spec.axes = {
        coyote::sweep::axis_from_token("topo.cores=1,2,4,8"),
        coyote::sweep::axis_from_token("core.l1d_kb=4,16"),
        coyote::sweep::axis_from_token("l2.size_kb=64,256,1024"),
        coyote::sweep::axis_from_token("mc.latency=50,100,200,400"),
        coyote::sweep::axis_from_token("noc.model=crossbar,mesh")};
  }
  return spec;
}

/// Starts one worker process the way `coyote_campaign run` does: fork,
/// then exec this binary in worker mode (worker_main) against the
/// loopback broker.
pid_t spawn_worker(std::uint16_t port, unsigned index) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string port_arg = "--worker-port=" + std::to_string(port);
  const std::string index_arg = "--worker-index=" + std::to_string(index);
  const char* argv[] = {"/proc/self/exe", port_arg.c_str(), index_arg.c_str(),
                        nullptr};
  ::execv(argv[0], const_cast<char* const*>(argv));
  std::fprintf(stderr, "[perfbench] exec failed: %s\n", std::strerror(errno));
  ::_exit(127);
}

}  // namespace

int worker_main(std::uint16_t port, unsigned index) {
  // stdout is the driver's JSON channel; worker chatter goes to stderr.
  ::dup2(2, 1);
  try {
    Worker::Options options;
    options.port = port;
    options.name = "perfbench-worker" + std::to_string(index);
    options.jobs = 1;
    Worker(std::move(options)).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] worker%u: %s\n", index, e.what());
    return 1;
  }
  return 0;
}

namespace {

/// Reaps worker processes; anything still alive on destruction is killed
/// and reaped, so no path leaves a process behind.
class WorkerFleet {
 public:
  WorkerFleet() = default;
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;
  ~WorkerFleet() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  void add(pid_t pid) {
    if (pid > 0) pids_.push_back(pid);
  }
  struct Session {
    bool ok = false;
    double tail_s = 0.0;
  };

  /// Waits for every worker, at most kTailCap after `table_time`.
  std::vector<Session> wait(double table_time) {
    std::vector<Session> sessions;
    while (!pids_.empty()) {
      for (auto it = pids_.begin(); it != pids_.end();) {
        int status = 0;
        if (::waitpid(*it, &status, WNOHANG) == *it) {
          sessions.push_back({WIFEXITED(status) && WEXITSTATUS(status) == 0,
                              std::max(0.0, now_s() - table_time)});
          it = pids_.erase(it);
        } else {
          ++it;
        }
      }
      if (pids_.empty()) break;
      if (now_s() - table_time >= kTailCap) {
        for (const pid_t pid : pids_) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, nullptr, 0);
          sessions.push_back({false, kTailCap});
        }
        pids_.clear();
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return sessions;
  }

 private:
  std::vector<pid_t> pids_;
};

struct Pass {
  SweepReport report;
  double seconds = 0.0;    ///< broker construction -> serve() returns
  double prefill_s = 0.0;  ///< broker construction (expansion + prefill)
  double serve_s = 0.0;
  std::size_t points = 0;
  std::size_t prefilled = 0;
  Section section;  ///< broker construction until serve() returns
  std::vector<WorkerFleet::Session> sessions;
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

class CampaignBench : public Bench {
 public:
  explicit CampaignBench(const Options& options)
      : Bench(options), spec_(grid_for(options)) {}

  Result run() {
    persisted_pass();
    Result result = repeat([this](int) { one_rep(); });
    fs::remove_all(root_dir());
    return result;
  }

 private:
  std::string root_dir() const { return options_.work_dir + "/campaign"; }
  std::string memo_dir() const { return root_dir() + "/memo"; }

  Pass serve_pass(const std::string& state_dir, const std::string& memo_dir,
                  const char* label) {
    Pass pass;
    Broker::Options broker_options;
    broker_options.state_dir = state_dir;
    broker_options.memo_dir = memo_dir;
    WorkerFleet fleet;
    double table_time = 0.0;
    const double section_start = mark();
    {
      const double start = now_s();
      Span prefill(tracer_, "campaign.prefill");
      Broker broker(spec_, broker_options);
      pass.prefill_s = prefill.stop();
      pass.points = broker.num_points();
      pass.prefilled = broker.num_done();
      prefill.count("points", static_cast<double>(pass.points));
      prefill.count("prefilled", static_cast<double>(pass.prefilled));
      const std::uint16_t port = broker.listen("127.0.0.1", 0);
      for (unsigned w = 0; w < kWorkers; ++w) {
        fleet.add(spawn_worker(port, w));
      }
      Span serve(tracer_, "campaign.serve");
      pass.report = broker.serve();
      pass.serve_s = serve.stop();
      table_time = now_s();
      pass.seconds = table_time - start;
      pass.section = lap(section_start);
      Op op(result_);
      op.check(std::string(label) + " pass serves the whole grid",
               !broker.drained_incomplete() &&
                   pass.report.points.size() == pass.points);
    }
    Span wait(tracer_, "campaign.worker_wait");
    pass.sessions = fleet.wait(table_time);
    wait.count("sessions_failed",
               static_cast<double>(std::count_if(
                   pass.sessions.begin(), pass.sessions.end(),
                   [](const WorkerFleet::Session& s) { return !s.ok; })));
    for (std::size_t w = pass.sessions.size(); w < kWorkers; ++w) {
      pass.sessions.push_back({false, 0.0});  // fork failed
    }
    return pass;
  }

  /// Host MIPS, per-point times and the table to compare against, from the
  /// in-process SweepEngine at jobs=1 on the same spec. The engine runs the
  /// points in order on this thread; its per-point hook reads the host
  /// reference after every kGroup points, so the host's speed is known
  /// through the pass, not only at its ends.
  SweepReport engine_pass() {
    constexpr std::size_t kGroup = 32;
    coyote::sweep::SweepEngine::Options engine_options;
    engine_options.jobs = 1;
    engine_options.collect = [this](coyote::core::Simulator&,
                                    coyote::sweep::PointResult& point) {
      if ((point.index + 1) % kGroup == 0) read_reference();
    };
    const double start = mark();
    Span span(tracer_, "sweep.engine_run");
    SweepReport report = coyote::sweep::SweepEngine(engine_options).run(spec_);
    span.count("points", static_cast<double>(report.points.size()));
    span.stop();
    const Section section = lap(start);
    std::vector<double> point_s;
    double instructions = 0.0;
    double seconds = 0.0;
    for (const auto& point : report.points) {
      point_s.push_back(point.run.wall_seconds);
      instructions += static_cast<double>(point.run.instructions);
      seconds += point.run.wall_seconds;
    }
    add("sweep.point_s_p50", percentile(point_s, 0.5));
    add("sweep.point_s_p90", percentile(point_s, 0.9));
    add_rate("host_mips", instructions / seconds / 1e6, section);
    return report;
  }

  /// Every program of the grid fast-forwarded to exit with functional cache
  /// warming (the A8 lever on these points); each must retire exactly the
  /// instructions the detailed table reports for points with that core
  /// count.
  void functional_pass(const SweepReport& table) {
    constexpr int kRounds = 16;
    double instructions = 0.0;
    double seconds = 0.0;
    const double start = mark();
    for (const std::string& cores : spec_.axes[0].values) {
      coyote::simfw::ConfigMap map;
      map.set("topo.cores", cores);
      coyote::core::SimConfig config = coyote::core::config_from_map(map);
      config.ffwd_instructions = ~std::uint64_t{0};
      config.ffwd_warmup = true;
      config.ffwd_stop_at_roi = false;
      std::uint64_t expected = 0;
      for (const auto& point : table.points) {
        if (point.config.has("topo.cores") &&
            point.config.get("topo.cores") == cores) {
          expected = point.run.instructions;
          break;
        }
      }
      for (int round = 0; round < kRounds; ++round) {
        Op op(result_);
        coyote::core::Simulator sim(config);
        const auto program = coyote::kernels::build_named_kernel(
            spec_.kernel, config.num_cores, spec_.size, spec_.seed,
            sim.memory());
        sim.load_program(program.base, program.words, program.entry);
        Span span(tracer_, "ckpt.fast_forward");
        const auto ffwd = coyote::ckpt::fast_forward(sim);
        seconds += span.stop();
        instructions += static_cast<double>(ffwd.instructions);
        op.check("functional pass runs to exit", ffwd.all_exited);
        op.check("functional pass retires the table's instructions",
                 ffwd.instructions == expected,
                 std::to_string(ffwd.instructions) + " vs " +
                     std::to_string(expected));
      }
    }
    const Section section = lap(start);
    add("ckpt.ffwd_s", seconds);
    add_rate("ffwd_mips", instructions / seconds / 1e6, section);
  }

  /// The grid with every result persisted: .done records in a state
  /// directory and .memo records in the store the replays read.
  void persisted_pass() {
    fs::remove_all(root_dir());
    fs::create_directories(root_dir());
    const Pass pass =
        serve_pass(root_dir() + "/state", memo_dir(), "persisted");
    check_against_engine(pass.report);
    tally_sessions(pass, "persisted pass");
    first_table_ = pass.report.to_json();
    result_.counts["campaign.persist_pass_s"] = pass.seconds;
    result_.counts["campaign.persist_bytes"] = static_cast<double>(
        dir_bytes(root_dir() + "/state") + dir_bytes(memo_dir()));
  }

  void one_rep() {
    const Pass cold = serve_pass("", "", "cold");
    std::vector<Pass> warm;
    for (int r = 0; r < kReplays; ++r) {
      warm.push_back(serve_pass("", memo_dir(), "memo-warm"));
    }
    check_against_engine(cold.report);

    const auto& cold_points = cold.report.points;
    for (const auto& point : cold_points) {
      Op op(result_);
      op.check("cold point succeeds", point.ok, point.error);
    }
    {
      Op op(result_);
      op.check("cold table equals the persisted pass's table",
               cold.report.to_json() == first_table_);
    }
    for (const Pass& pass : warm) {
      for (std::size_t i = 0; i < pass.report.points.size(); ++i) {
        Op op(result_);
        op.check("memo-warm row equals cold row",
                 i < cold_points.size() &&
                     pass.report.points[i].to_json() ==
                         cold_points[i].to_json());
      }
      Op op(result_);
      op.check("memo-warm table equals cold table",
               pass.report.to_json() == cold.report.to_json());
      op.check("memo-warm pass is served wholly from the memo store",
               pass.prefilled == pass.points);
    }

    double worst_tail = tally_sessions(cold, "cold pass");
    for (const Pass& pass : warm) {
      worst_tail = std::max(worst_tail, tally_sessions(pass, "memo-warm pass"));
    }
    add("campaign.worker_tail_s", worst_tail);
    add("campaign.worker_failures", static_cast<double>(session_failures_));
    session_failures_ = 0;

    functional_pass(cold.report);

    add_time("setup_s", cold.prefill_s, cold.section);
    add("e2e_s", cold.seconds);
    add_rate("points_per_s", static_cast<double>(cold.points) / cold.seconds,
             cold.section);
    add("campaign.prefill_s", cold.prefill_s);
    add("campaign.serve_s", cold.serve_s);
    for (const Pass& pass : warm) {
      add_rate("replay_points_per_s",
               static_cast<double>(pass.points) / pass.seconds,
               pass.section);
      add("campaign.replay_prefill_s", pass.prefill_s);
      add("campaign.replay_serve_s", pass.serve_s);
    }
    result_.counts["campaign.points_executed"] =
        static_cast<double>((cold.points - cold.prefilled) +
                            (warm[0].points - warm[0].prefilled));
    result_.counts["campaign.memo_hit_ratio"] =
        warm[0].points ? static_cast<double>(warm[0].prefilled) /
                             static_cast<double>(warm[0].points)
                       : 0.0;
    record_pins(cold.report);
  }

  /// Records each worker session of `pass` (a check, never an operation;
  /// see the top of this file); returns the longest tail.
  double tally_sessions(const Pass& pass, const char* which) {
    double worst_tail = 0.0;
    for (const auto& session : pass.sessions) {
      ++result_.counts["campaign.worker_sessions"];
      if (!result_.check("worker session ends in campaign-complete",
                         session.ok, which)) {
        ++session_failures_;
        ++result_.counts["campaign.worker_sessions_failed"];
      }
      worst_tail = std::max(worst_tail, session.tail_s);
    }
    return worst_tail;
  }

  /// The campaign's table must be byte-identical, row by row, to the
  /// in-process SweepEngine at jobs=1 on the same spec.
  void check_against_engine(const SweepReport& table) {
    const SweepReport engine = engine_pass();
    for (std::size_t i = 0; i < table.points.size(); ++i) {
      Op op(result_);
      op.check("campaign row equals SweepEngine jobs=1 row",
               i < engine.points.size() &&
                   engine.points[i].to_json() == table.points[i].to_json());
    }
    Op op(result_);
    op.check("campaign table equals SweepEngine jobs=1 table",
             table.to_json() == engine.to_json());
  }

  void record_pins(const SweepReport& table) {
    double cycles = 0.0;
    double instructions = 0.0;
    double nonzero = 0.0;
    for (const auto& point : table.points) {
      cycles += static_cast<double>(point.run.cycles);
      instructions += static_cast<double>(point.run.instructions);
      for (std::int64_t code : point.run.exit_codes) nonzero += code != 0;
    }
    result_.pins["points"] = static_cast<double>(table.points.size());
    result_.pins["points_ok"] = static_cast<double>(table.num_ok());
    result_.pins["cycles"] = cycles;
    result_.pins["instructions"] = instructions;
    result_.pins["nonzero_exit_codes"] = nonzero;
    result_.counts["core.sim_cycles"] = cycles;
    result_.counts["core.instructions"] = instructions;
  }

  SweepSpec spec_;
  std::string first_table_;
  std::size_t session_failures_ = 0;
};

}  // namespace

Result run_campaign_workload(const Options& options) {
  return CampaignBench(options).run();
}

}  // namespace perfbench
