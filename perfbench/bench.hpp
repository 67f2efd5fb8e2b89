// Shared pieces of the end-to-end benchmark: run arguments, the result
// report, clocks and order statistics, process probes (RSS, threads, CPUs),
// the in-memory span tracer, and a non-blocking line connection for the
// TCP workloads.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

// ---- Result report ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints: the correctness tally of the measured phases
/// and the metrics of the mode (end-to-end untraced, per-layer traced).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// The one-line JSON object the benchmark prints last.
  std::string json() const;
};

// ---- Clocks and statistics ----

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty sample.
double pct(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return pct(std::move(xs), 50.0); }

/// Fixed-length wall-clock slices over [start, start + n * len): each event
/// adds its amount to the slice it lands in; rates() gives amount/second per
/// slice, busy_rates() amount per second of recorded busy time.
class Slices {
 public:
  Slices(std::int64_t start_ns, std::int64_t slice_ns, std::size_t count);
  void add(std::int64_t at_ns, double amount, std::int64_t busy_ns = 0);
  std::vector<double> rates() const;
  std::vector<double> busy_rates() const;

 private:
  std::int64_t start_ns_, slice_ns_;
  std::vector<double> amount_;
  std::vector<std::int64_t> busy_;
};

// ---- Process probes ----

/// CPUs this process may run on (sched_getaffinity).
std::size_t usable_cpus();
/// Live threads of this process (/proc/self/status "Threads:").
std::size_t live_threads();
/// Current and peak resident set size in MiB (/proc/self/status).
double rss_mb();
double peak_rss_mb();
/// Resets the peak-RSS mark to the current RSS (/proc/self/clear_refs).
void reset_peak_rss();

/// Thread ids of this process, ascending (creation order).
std::vector<pid_t> thread_ids();

/// Fixed CPU placement for the measured phases: the calling thread gets the
/// first usable CPU, each thread in `own` the next CPU to itself, and every
/// other thread of the process shares the CPUs left; throws when none are
/// left.  Left to the scheduler, placement varied from run to run, and with
/// it throughput at an unchanged median latency.
///
/// Every other usable CPU also gets an idle-priority (SCHED_IDLE) spinner,
/// so it never halts: on a virtual machine, waking a halted vCPU waits for
/// the hypervisor, and that wait moved the TCP workloads' median batch
/// latency by half between quiet and busy host periods.  A spinner yields
/// to any other runnable thread at once.  The destructor stops and joins
/// the spinners and gives the calling thread its old CPU set back.
class CpuPlacement {
 public:
  explicit CpuPlacement(const std::vector<pid_t>& own = {});
  ~CpuPlacement();
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

 private:
  cpu_set_t saved_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

/// One setup sample: the seconds `setup` reported, and the child's peak
/// RSS growth over it in MiB.
struct SetupSample {
  double seconds = 0.0;
  double peak_mb = 0.0;
};

/// Runs `setup` once in each of `count` forked children, one after another,
/// so every sample starts from this process's state and leaves nothing
/// behind in it.  Call only while this process is single-threaded; throws
/// when a child fails.
std::vector<SetupSample> forked_setups(int count, const std::function<double()>& setup);

// ---- Tracing ----

/// In-memory spans: name, request id, parent span, start and end.  Spans
/// are recorded by the benchmark's own thread around calls into the
/// library's layers; nothing is written until write() at the end of the
/// run.  A disabled tracer records nothing and returns span id 0.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Records a finished span; returns its id (1-based, 0 when disabled).
  std::uint32_t record(const char* name, std::uint64_t request,
                       std::uint32_t parent, std::int64_t start_ns,
                       std::int64_t end_ns);
  /// Sets the end of an open span recorded with end == start (a parent
  /// whose children are recorded before it finishes).
  void close(std::uint32_t id, std::int64_t end_ns) {
    if (id > 0) spans_[id - 1].end_ns = end_ns;
  }
  /// A fresh request id shared by the spans of one request.
  std::uint64_t next_request() { return ++last_request_; }

  /// Per-layer self time: for each layer (the span name up to its first
  /// '.'), total span time minus the time its child spans cover.
  struct LayerTime {
    double self_ms = 0.0;
    double total_ms = 0.0;
    std::uint64_t spans = 0;
  };
  std::map<std::string, LayerTime> self_times() const;

  /// Writes one JSON object per span to `path`, then a per-layer self-time
  /// summary line.  Returns false when the file can't be written.
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::uint32_t parent;
    std::int64_t start_ns, end_ns;
  };
  bool on_;
  std::uint64_t last_request_ = 0;
  std::vector<Span> spans_;
};

// ---- Line connection ----

/// A non-blocking loopback TCP connection speaking the line protocol.  One
/// thread multiplexes several of these with poll(): queue() buffers
/// outgoing bytes, flush() writes what the socket takes, fill() reads what
/// has arrived, and next_line() pops complete lines.
class LineConn {
 public:
  explicit LineConn(std::uint16_t port);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  int fd() const { return fd_; }
  void queue(std::string_view bytes);
  void flush();
  bool want_write() const { return out_off_ < out_.size(); }
  /// Reads everything available; throws when the server closed.
  void fill();
  bool next_line(std::string_view& line);
  /// Complete lines buffered and not yet popped.
  std::size_t complete_lines() const;
  /// Blocking request/response of one line (setup and sweeps).
  std::string call(std::string_view line);

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
  std::size_t consumed_ = 0;  ///< bytes of in_ handed out by next_line
};

}  // namespace perfbench
