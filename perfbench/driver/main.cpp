// coyote_perfbench: runs one benchmark workload against the simulator's
// public API and prints one JSON object with its raw samples, counts,
// checks and operation tallies. perfbench/run.py builds this binary, runs
// it and turns the samples into the reported metrics.
//
//   coyote_perfbench --workload=matmul-l1 --seed=1 --seconds=10 [--trace]
//                    [--tiny] --work-dir=DIR [--spans-out=FILE]
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <string>

#include "bench.h"
#include "simfw/unit.h"

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

/// The build type as the compiler saw it, not as a CMake cache names it.
std::string build_type() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return "Release";
#elif defined(__OPTIMIZE__)
  return "Optimized+asserts";
#elif defined(NDEBUG)
  return "Unoptimized+NDEBUG";
#else
  return "Debug";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

std::string num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ------------------------------------------------------------------ spans --

int Tracer::open(const std::string& name, double start) {
  if (!enabled) return -1;
  SpanRecord span;
  span.name = name;
  span.start = start;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run_id = run_id;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id, double end,
                   std::vector<std::pair<std::string, double>> counts) {
  if (id < 0) return;
  spans_[id].end = end;
  spans_[id].counts = std::move(counts);
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::add_count(int id, const std::string& name, double value) {
  if (id >= 0) spans_[id].counts.emplace_back(name, value);
}

std::map<std::string, double> Tracer::self_times(int run) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.run_id == run && span.parent >= 0) {
      child_time[span.parent] += span.end - span.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.run_id != run) continue;
    const std::size_t dot = span.name.find('.');
    const std::string layer =
        dot == std::string::npos ? "bench" : span.name.substr(0, dot);
    out[layer] += span.end - span.start - child_time[i];
  }
  return out;
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
       << ", \"name\": " << quote(span.name) << ", \"start\": "
       << num(span.start) << ", \"end\": " << num(span.end)
       << ", \"parent\": " << span.parent << ", \"run_id\": " << span.run_id
       << ", \"counts\": {";
    for (std::size_t k = 0; k < span.counts.size(); ++k) {
      os << (k ? ", " : "") << quote(span.counts[k].first) << ": "
         << num(span.counts[k].second);
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

Span::Span(Tracer& tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)), start_(now_s()) {
  id_ = tracer_.open(name_, start_);
}

void Span::count(const std::string& name, double value) {
  if (seconds_ >= 0.0) {
    tracer_.add_count(id_, name, value);
  } else {
    counts_.emplace_back(name, value);
  }
}

double Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const double end = now_s();
  seconds_ = end - start_;
  tracer_.close(id_, end, std::move(counts_));
  return seconds_;
}

// -------------------------------------------------------------- repeating --

HostReference::HostReference() : state_(std::size_t{1} << 15) {
  std::uint64_t z = 7;
  for (auto& v : state_) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    v = z;
  }
}

double HostReference::mops(int events) {
  struct Event {
    std::uint64_t time;
    std::uint32_t who;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  const std::size_t mask = state_.size() - 1;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  for (std::uint32_t who = 0; who < 64; ++who) queue.push({who, who});
  // One sweep over the table first, so every reading starts from the same
  // cache state whatever the measured section before it evicted.
  std::uint64_t acc = 0;
  for (const std::uint64_t v : state_) acc += v;
  const double start = now_s();
  for (int i = 0; i < events; ++i) {
    const Event event = queue.top();
    queue.pop();
    std::uint64_t& slot = state_[(event.who * 2654435761ULL + acc) & mask];
    acc += slot;
    slot ^= acc >> 3;
    std::uint64_t delay = 1 + (acc & 7);
    if ((acc & 16) != 0) delay += state_[(acc >> 7) & mask] & 31;
    queue.push({event.time + delay, event.who});
  }
  const double seconds = now_s() - start;
  // Keep the loop's result observable so it cannot be optimised away.
  state_[0] ^= acc;
  return events / seconds / 1e6;
}

void Bench::read_reference() {
  // About 16 ms on the hosts this was written on: short enough to read
  // around every measured section, long enough to average over a
  // scheduler tick.
  constexpr int kEvents = 200'000;
  Span span(tracer_, "bench.reference");
  const double start = now_s();
  const double mops = reference_.mops(kEvents);
  result_.reference.emplace_back((start + now_s()) / 2.0, mops);
  add("bench.ref_mops", mops);
}

double Bench::mark() {
  read_reference();
  return now_s();
}

Section Bench::lap(double start) {
  const Section section{start, now_s()};
  read_reference();
  return section;
}

Result Bench::repeat(const std::function<void(int)>& rep) {
  const double deadline = now_s() + options_.seconds;
  // The reference's table stays resident all run; it is not the workload's.
  const double reference_mb =
      static_cast<double>(reference_.bytes()) / (1 << 20);
  std::vector<double> rep_s;
  int count = 0;
  while (true) {
    traced_ = options_.trace && count % 2 == 1;
    tracer_.enabled = traced_;
    tracer_.run_id = count;
    reset_peak_rss();
    Span whole(tracer_, "rep");
    rep(count);
    rep_s.push_back(whole.stop());
    add("rep_s", rep_s.back());
    add("peak_rss_mb", peak_rss_mb() - reference_mb);
    ++count;
    if (options_.trace && count < 2) continue;
    std::vector<double> sorted = rep_s;
    std::sort(sorted.begin(), sorted.end());
    if (now_s() + sorted[sorted.size() / 2] > deadline) break;
  }
  if (options_.trace) {
    for (int id = 1; id < count; id += 2) {
      for (const auto& [layer, seconds] : tracer_.self_times(id)) {
        result_.add("traced/" + layer + ".self_s", seconds);
      }
    }
    if (!options_.spans_out.empty()) {
      std::ofstream(options_.spans_out) << tracer_.to_json();
    }
  }
  return std::move(result_);
}

// ---------------------------------------------------------------- results --

bool Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  // Keep every failure but only the first pass of each check name, so a
  // long run does not print thousands of identical passes.
  const bool seen = std::any_of(checks.begin(), checks.end(),
                                [&](const Check& c) {
                                  return c.name == name && c.ok;
                                });
  if (!ok || !seen) checks.push_back({name, ok, detail});
  return ok;
}

Op::~Op() {
  ++result_.attempted;
  if (!ok_) ++result_.failed;
}

bool Op::check(const std::string& name, bool ok, const std::string& detail) {
  if (!result_.check(name, ok, detail)) ok_ = false;
  return ok;
}

std::string Result::to_json(const Options& options) const {
  std::ostringstream os;
  os << "{\"workload\": " << quote(options.workload)
     << ", \"seed\": " << options.seed
     << ", \"tiny\": " << (options.tiny ? "true" : "false")
     << ", \"trace\": " << (options.trace ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"build\": {\"build_type\": " << quote(build_type())
     << ", \"compiler\": " << quote(compiler()) << "}";
  os << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : samples) {
    os << (first ? "" : ", ") << quote(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << num(values[i]);
    }
    os << "]";
    first = false;
  }
  const auto dump_map = [&os](const char* key,
                              const std::map<std::string, double>& map) {
    os << ", \"" << key << "\": {";
    bool first_entry = true;
    for (const auto& [name, value] : map) {
      os << (first_entry ? "" : ", ") << quote(name) << ": " << num(value);
      first_entry = false;
    }
    os << "}";
  };
  os << "}";
  dump_map("counts", counts);
  dump_map("pins", pins);
  os << ", \"reference\": [";
  for (std::size_t i = 0; i < reference.size(); ++i) {
    os << (i ? ", " : "") << "[" << num(reference[i].first) << ", "
       << num(reference[i].second) << "]";
  }
  os << "], \"sections\": [";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionSample& s = sections[i];
    os << (i ? ", " : "") << "{\"name\": " << quote(s.name)
       << ", \"start\": " << num(s.section.start)
       << ", \"end\": " << num(s.section.end)
       << ", \"value\": " << num(s.value)
       << ", \"rate\": " << (s.rate ? "true" : "false") << "}";
  }
  os << "]";
  os << ", \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << quote(checks[i].name)
       << ", \"ok\": " << (checks[i].ok ? "true" : "false")
       << ", \"detail\": " << quote(checks[i].detail) << "}";
  }
  os << "]}";
  return os.str();
}

// ------------------------------------------------------------- statistics --

namespace {

/// Sums statistic `stat` over every unit whose name starts with `prefix`.
double sum_stat(const coyote::simfw::Unit& root, const std::string& prefix,
                const std::string& stat) {
  double total = 0.0;
  root.for_each([&](const coyote::simfw::Unit& unit) {
    if (unit.name().rfind(prefix, 0) != 0) return;
    for (const auto& counter : unit.stats().counters()) {
      if (counter->name() == stat) total += static_cast<double>(counter->get());
    }
    for (const auto& def : unit.stats().statistics()) {
      if (def->name() == stat) total += def->evaluate();
    }
  });
  return total;
}

}  // namespace

SimCounts read_counts(coyote::core::Simulator& sim,
                      const coyote::core::RunResult& run) {
  const coyote::simfw::Unit& root = sim.root();
  SimCounts c;
  c.cycles = run.cycles;
  c.instructions = run.instructions;
  c.events_fired = sim.scheduler().events_fired();
  c.l2_accesses = sum_stat(root, "l2bank", "accesses");
  c.l2_misses = sum_stat(root, "l2bank", "misses");
  c.mc_reads = sum_stat(root, "mc", "reads");
  c.noc_messages = sum_stat(root, "noc", "messages");
  c.noc_flits = sum_stat(root, "noc", "flits");
  c.noc_wait_cycles = sum_stat(root, "noc", "wait_cycles");
  c.l1d_misses = sum_stat(root, "core", "l1d_misses");
  c.raw_stall_cycles = sum_stat(root, "core", "raw_stall_cycles");
  c.coh_invalidations = sum_stat(root, "core", "coh_invalidations");
  c.dbb_hits = sum_stat(root, "core", "dbb_hits");
  c.dbb_misses = sum_stat(root, "core", "dbb_misses");
  c.dbb_invalidations = sum_stat(root, "core", "dbb_invalidations");
  c.exit_codes = run.exit_codes;
  return c;
}

std::map<std::string, double> simulated_stats(coyote::core::Simulator& sim) {
  std::map<std::string, double> out;
  const coyote::simfw::Unit& root = sim.root();
  root.for_each([&](const coyote::simfw::Unit& unit) {
    const auto keep = [](const std::string& name) {
      return name.rfind("dbb_", 0) != 0;
    };
    for (const auto& counter : unit.stats().counters()) {
      if (keep(counter->name())) {
        out[unit.path() + "/" + counter->name()] =
            static_cast<double>(counter->get());
      }
    }
    for (const auto& def : unit.stats().statistics()) {
      if (keep(def->name())) {
        out[unit.path() + "/" + def->name()] = def->evaluate();
      }
    }
  });
  out["scheduler/events_fired"] =
      static_cast<double>(sim.scheduler().events_fired());
  out["scheduler/now"] = static_cast<double>(sim.scheduler().now());
  return out;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would also
  // carry the peak of whatever process forked and exec'd the driver.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void reset_peak_rss() {
  // "5" restarts VmHWM at the current resident set (Linux 4.0 and later).
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "coyote_perfbench: %s\n"
               "usage: coyote_perfbench --workload=NAME --seed=N "
               "--seconds=S --work-dir=DIR [--trace] [--tiny] "
               "[--spans-out=FILE]\n"
               "workloads: matmul-l1 spmv-mesh ffwd-roi campaign\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  long worker_port = -1;
  unsigned worker_index = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&arg]() { return arg.substr(arg.find('=') + 1); };
      if (arg.rfind("--workload=", 0) == 0) {
        options.workload = value();
      } else if (arg.rfind("--seed=", 0) == 0) {
        options.seed = std::stoull(value());
      } else if (arg.rfind("--seconds=", 0) == 0) {
        options.seconds = std::stod(value());
      } else if (arg.rfind("--work-dir=", 0) == 0) {
        options.work_dir = value();
      } else if (arg.rfind("--spans-out=", 0) == 0) {
        options.spans_out = value();
      } else if (arg.rfind("--worker-port=", 0) == 0) {
        worker_port = std::stol(value());
      } else if (arg.rfind("--worker-index=", 0) == 0) {
        worker_index = static_cast<unsigned>(std::stoul(value()));
      } else if (arg == "--trace") {
        options.trace = true;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number in the arguments");
  }
  if (worker_port >= 0) {
    return perfbench::worker_main(static_cast<std::uint16_t>(worker_port),
                                  worker_index);
  }
  if (options.work_dir.empty()) return usage("--work-dir is required");

  perfbench::Result result;
  try {
    if (options.workload == "campaign") {
      result = perfbench::run_campaign_workload(options);
    } else if (options.workload == "matmul-l1" ||
               options.workload == "spmv-mesh" ||
               options.workload == "ffwd-roi") {
      result = perfbench::run_sim_workload(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coyote_perfbench: %s\n", e.what());
    return 1;
  }
  std::fputs(result.to_json(options).c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
