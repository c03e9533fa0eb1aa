// Shared plumbing of the benchmark driver: options, the per-run result
// (timing samples, layer counts, correctness checks, operation tallies),
// the span recorder used by traced runs, and a reader for the simulator's
// statistics tree.
//
// Every timed call into a layer goes through a Span. A Span is a stopwatch
// first: untraced runs use its duration for their samples. When the run is
// traced it also lands in the Tracer (name, start, end, parent, run id and
// the counts taken at the same boundary), which keeps spans in memory and
// writes them out once, when the driver exits.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny problem sizes: the self-check mode, same code and checks.
  bool tiny = false;
  /// Directory for the campaign's state/memo stores and memo replays.
  std::string work_dir;
  /// Where a traced run writes its spans at exit (empty = nowhere).
  std::string spans_out;
};

double now_s();

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run_id = 0;
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  bool enabled = false;
  /// Spans opened from now on belong to this run (one repetition).
  int run_id = 0;

  int open(const std::string& name, double start);
  void close(int id, double end,
             std::vector<std::pair<std::string, double>> counts);
  /// Adds a count to a span that has already ended.
  void add_count(int id, const std::string& name, double value);
  /// Per-layer self time of one run: each span's duration minus the part
  /// covered by its children, summed per layer (the name up to the first
  /// '.'; spans without a dot are charged to "bench").
  std::map<std::string, double> self_times(int run_id) const;
  std::string to_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& tracer, std::string name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records a count at this span's boundary (traced runs keep it); may
  /// be called before or after stop().
  void count(const std::string& name, double value);
  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  Tracer& tracer_;
  std::string name_;
  double start_;
  double seconds_ = -1.0;
  int id_ = -1;
  std::vector<std::pair<std::string, double>> counts_;
};

/// A measured section: from just after one reading of the host reference
/// to just before the next.
struct Section {
  double start = 0.0;
  double end = 0.0;
};

/// A sample measured over a section. run.py expresses it at a nominal host
/// speed, from the reference readings taken around the section.
struct SectionSample {
  std::string name;
  Section section;
  double value = 0.0;
  /// A rate (scaled up on a slow host) rather than a duration.
  bool rate = true;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// What one run of the driver reports back to run.py.
struct Result {
  /// Per-repetition samples (timings, rates); run.py takes medians.
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer counts that do not vary between repetitions.
  std::map<std::string, double> counts;
  /// Every reading of the host reference: (time, M events/s).
  std::vector<std::pair<double, double>> reference;
  std::vector<SectionSample> sections;
  /// Simulated statistics pinned at the default seed (perfbench/pins.json).
  std::map<std::string, double> pins;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  /// Records a named check; returns `ok` so callers can fold it into an
  /// operation's outcome.
  bool check(const std::string& name, bool ok, const std::string& detail = "");
  std::string to_json(const Options& options) const;
};

/// One attempted operation (a simulation, a grid point, a table check):
/// counted as attempted when it goes out of scope, and as failed if any
/// check made through it missed.
class Op {
 public:
  explicit Op(Result& result) : result_(result) {}
  ~Op();
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  bool check(const std::string& name, bool ok, const std::string& detail = "");

 private:
  Result& result_;
  bool ok_ = true;
};

/// A fixed reference workload in the shape of the simulator's event loop:
/// an event heap driving hashed updates of a 256 KiB state table. The table
/// fits a core's own caches, so the reference tracks the speed of this
/// process's core; a 4 MiB table lived in the shared last-level cache, whose
/// speed swung far more than the simulator's. Read around every measured
/// section, its speed tells how fast the shared host ran that section.
class HostReference {
 public:
  HostReference();
  /// Runs `events` reference events; returns their speed in M events/s.
  double mops(int events);
  /// Resident bytes the reference holds for the whole run.
  std::size_t bytes() const { return state_.size() * sizeof(state_[0]); }

 private:
  std::vector<std::uint64_t> state_;
};

class Bench {
 protected:
  explicit Bench(const Options& options) : options_(options) {}

  /// The repetition loop every workload shares. Calls `rep(index)` until
  /// the run's time is used up (a repetition is not started if a typical
  /// one would overrun it), then records the traced repetitions' per-layer
  /// self times and writes the spans out. A traced run alternates untraced
  /// and traced repetitions, so the tracing overhead is measured within one
  /// process, and makes at least one of each. Each repetition's peak RSS is
  /// a "peak_rss_mb" sample.
  Result repeat(const std::function<void(int)>& rep);
  /// Records a sample; samples of traced repetitions are kept apart.
  void add(const std::string& name, double value) {
    result_.add(sample_name(name), value);
  }
  /// Records a rate or a duration measured over `section`: as a sample,
  /// and as a section sample that run.py scales by the host's speed.
  void add_rate(const std::string& name, double value, Section section) {
    add(name, value);
    result_.sections.push_back({sample_name(name), section, value, true});
  }
  void add_time(const std::string& name, double seconds, Section section) {
    add(name, seconds);
    result_.sections.push_back({sample_name(name), section, seconds, false});
  }
  /// Reads the host reference and returns the time: the start of a
  /// measured section.
  double mark();
  /// Reads the host reference again; returns the section since `start`.
  Section lap(double start);
  /// Reads the host reference inside a long section.
  void read_reference();

  const Options& options_;
  Tracer tracer_;
  Result result_;

 private:
  std::string sample_name(const std::string& name) const {
    return traced_ ? "traced/" + name : name;
  }

  bool traced_ = false;
  HostReference reference_;
};

/// Simulated statistics of a finished machine, read from its statistics
/// tree and scheduler by the same names the JSON report prints.
struct SimCounts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t events_fired = 0;
  double l2_accesses = 0;
  double l2_misses = 0;
  double mc_reads = 0;
  double noc_messages = 0;
  double noc_flits = 0;
  double noc_wait_cycles = 0;
  double l1d_misses = 0;
  double raw_stall_cycles = 0;
  double coh_invalidations = 0;
  double dbb_hits = 0;
  double dbb_misses = 0;
  double dbb_invalidations = 0;
  std::vector<std::int64_t> exit_codes;
};

SimCounts read_counts(coyote::core::Simulator& sim,
                      const coyote::core::RunResult& run);

/// Every counter and derived statistic of the tree keyed "unit.path/name",
/// except the host-only decoded-block counters (dbb_*), which are rebuilt
/// cold after a restore by design.
std::map<std::string, double> simulated_stats(coyote::core::Simulator& sim);

/// Peak resident set of this process since it started or since the last
/// reset_peak_rss(), MiB.
double peak_rss_mb();
/// Restarts the peak at the current resident set.
void reset_peak_rss();

/// Formats a double with all its digits.
std::string num(double value);
std::string quote(const std::string& text);

/// Workload entry points (one per --workload name).
Result run_sim_workload(const Options& options);
Result run_campaign_workload(const Options& options);
/// Worker-process mode of the campaign workload; returns the exit status.
int worker_main(std::uint16_t port, unsigned index);

}  // namespace perfbench
