// loadgen — the benchmark's open-loop DNS load generator.
//
// Sends a precomputed schedule of reads (and, for update_churn, RFC 2136
// UPDATEs plus back-to-back consistency probes) over at most three UDP
// sockets from two threads: the sender keeps the schedule, the receiver
// validates answers.  Each request is timed from its *due* time, so a
// stall in the generator or the server shows up as latency of every
// request queued behind it, and the send lag (actual send - due) is
// reported separately.  Arrivals within a phase are Poisson-spaced
// (independent clients), rescaled so a phase holds exactly rate x seconds
// requests.
//
//   loadgen zone     --seed S --names N --out FILE
//   loadgen run      --seed S --names N --zipf s --target ip:port ...
//                    --phase RATE:SECONDS [--phase ...] --out summary.json
//                    --samples samples.bin [--trace spans.csv]
//   loadgen run      --seed S --names N --target ip:port --warm ...
//                    (closed loop: every name once, in order)
//   loadgen selftest
//
// `run` writes a JSON summary per phase and the raw latency samples (u32
// nanoseconds, one named series per phase) for perfbench/stats.py.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dns/zone_text.h"
#include "net/endpoint.h"
#include "workload.h"

namespace perfbench {
namespace {

int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void pin_current_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: CPU may be absent
}

struct Phase {
  double rate = 0;
  double seconds = 0;
};

struct Options {
  Spec spec;
  std::vector<net::Endpoint> targets;  ///< read targets, one socket each
  net::Endpoint update_target{};       ///< UPDATE + probe mode when set
  bool updates = false;
  std::vector<Phase> phases;
  bool warm = false;  ///< closed-loop warm-up instead of the schedule
  bool validate = true;
  /// Sender and receiver CPUs: the first two the process may run on.
  std::vector<int> cpus;
  std::string out;
  std::string samples;
  std::string trace;
};

enum Kind : uint8_t { kRead = 0, kUpdate = 1 };

constexpr int64_t kReadTimeoutNs = 250'000'000;
// UPDATEs per second.  The authority copies and diffs the whole zone per
// UPDATE (~30 ms at 10k names), so 30/s already times out.
constexpr double kUpdateRate = 10;
// An UPDATE may queue behind the authority's journal fsyncs (a durable
// authority syncs every lease grant), so it gets longer than a read.
constexpr int64_t kUpdateTimeoutNs = 1'000'000'000;
// Warm-up requests in flight at once: enough to keep the cache's miss
// path busy, few enough that its upstream queries never overflow a queue.
constexpr std::size_t kWarmWindow = 64;

enum Outcome : uint8_t {
  kPending = 0,
  kOk,
  kTimeout,
  kRcode,      ///< SERVFAIL / REFUSED / any non-NOERROR answer
  kMalformed,  ///< unparsable, wrong question, no A record
  kWrong,      ///< address no issued version of the name carries
};

struct Request {
  int64_t due = 0;  ///< relative to the schedule start
  int64_t sent = 0;
  int64_t recv = 0;
  uint32_t name = 0;
  uint32_t version = 0;  ///< kUpdate: the version it installs
  uint32_t wire = 0;     ///< kUpdate: index into update_wire_
  uint8_t kind = kRead;
  uint8_t phase = 0;
  uint8_t ext = 0;
  uint8_t outcome = kPending;
};

struct Probe {
  uint32_t update = 0;  ///< index into the request table
  int64_t sent = 0;
};

int open_socket(const net::Endpoint& target) {
  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int buf = 8 << 20;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(target.ip);
  addr.sin_port = htons(target.port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Per-name version model: the address of every version and the due time
/// (schedule-relative) of the UPDATE that issues it; version 0 is issued
/// at the start.  `first_seen` is the receive time of the first answer
/// carrying each version (receiver thread only).
struct NameModel {
  std::vector<uint32_t> versions;
  std::vector<uint32_t> addresses;
  std::vector<int64_t> issued;
  std::vector<int64_t> first_seen;
};

class Generator {
 public:
  explicit Generator(Options opts) : opts_(std::move(opts)) {}

  ~Generator() {
    for (int fd : fds_) {
      if (fd >= 0) close(fd);
    }
  }

  bool setup();
  void run();
  bool write_results() const;
  double offered_qps(std::size_t phase) const;

 private:
  void build_schedule();
  void sender();
  void warm_sender();
  void receiver();
  void finish_probe(uint32_t update, Outcome outcome);
  void on_datagram(int sock, const uint8_t* data, std::size_t len,
                   int64_t t);
  Outcome check_answer(uint32_t name, const uint8_t* data, std::size_t len,
                       int64_t t, int64_t sent, uint32_t* version);
  void send_probe(uint32_t update, int64_t t);

  Options opts_;
  std::vector<Request> reqs_;
  std::vector<int64_t> phase_start_;  ///< schedule-relative
  std::vector<NameModel> model_;
  std::vector<std::string> first_label_;  ///< "w<i>"
  std::vector<std::vector<uint8_t>> plain_, ext_;
  std::vector<std::vector<uint8_t>> update_wire_;  ///< per update request

  std::vector<int> fds_;  ///< read sockets, then update, then probe
  int update_sock_ = -1;
  int probe_sock_ = -1;
  /// Per socket: DNS id -> request index + 1 (0 = none).
  std::vector<std::unique_ptr<std::atomic<uint32_t>[]>> inflight_;
  std::vector<uint16_t> next_id_;

  int64_t start_ = 0;  ///< absolute ns of schedule time 0
  std::atomic<bool> stop_{false};

  // Probe hand-off: the sender publishes update indices; the receiver
  // (the only thread that sends probes) consumes them.
  std::vector<uint32_t> probe_ring_;
  std::atomic<uint64_t> probe_head_{0};
  uint64_t probe_tail_ = 0;
  std::vector<Probe> probes_;  ///< receiver only; index = probe id
  std::vector<uint32_t> probe_by_id_;
  std::vector<int64_t> probe_pending_;  ///< per update: last probe send
  std::vector<uint8_t> probe_done_;
  /// Per update: kPending, or how the probe answer that ended its chain
  /// failed (kRcode, kMalformed, kWrong).
  std::vector<uint8_t> probe_outcome_;
  std::vector<uint8_t> probe_answered_;  ///< stale answer in, next one due
  std::vector<uint32_t> probing_;  ///< updates whose probe chain is open
  uint16_t probe_next_id_ = 0;
  uint64_t probes_sent_ = 0;

  std::size_t reads_total_ = 0;
  std::size_t updates_total_ = 0;
  std::atomic<std::size_t> reads_answered_{0};
  std::atomic<std::size_t> updates_answered_{0};
  std::atomic<std::size_t> probes_finished_{0};

  uint64_t stray_ = 0;
  uint64_t rollbacks_ = 0;
  dns::MessageView view_;
};

bool Generator::setup() {
  const std::size_t n = opts_.spec.names;
  model_.resize(n);
  first_label_.resize(n);
  plain_.resize(n);
  ext_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Entry 0 is whatever version the name holds when this run starts.
    model_[i].versions.push_back(current_version(opts_.spec, i));
    model_[i].addresses.push_back(
        address(opts_.spec.seed, i, model_[i].versions.back()));
    model_[i].issued.push_back(0);
    model_[i].first_seen.push_back(0);
    first_label_[i] = "w" + std::to_string(i);
    plain_[i] = query_wire(i, false, 0);
    ext_[i] = query_wire(i, true, 0);
  }
  build_schedule();

  for (const auto& target : opts_.targets) fds_.push_back(open_socket(target));
  if (opts_.updates) {
    update_sock_ = static_cast<int>(fds_.size());
    fds_.push_back(open_socket(opts_.update_target));
    probe_sock_ = static_cast<int>(fds_.size());
    fds_.push_back(open_socket(opts_.targets.front()));
  }
  for (int fd : fds_) {
    if (fd < 0) {
      std::fprintf(stderr, "loadgen: socket: %s\n", std::strerror(errno));
      return false;
    }
  }
  for (std::size_t s = 0; s < fds_.size(); ++s) {
    inflight_.emplace_back(new std::atomic<uint32_t>[65536]);
    for (int i = 0; i < 65536; ++i) inflight_.back()[i].store(0);
  }
  next_id_.assign(fds_.size(), 0);
  probe_ring_.assign(1 << 16, 0);
  probe_by_id_.assign(65536, 0);
  probe_pending_.assign(reqs_.size(), 0);
  probe_done_.assign(reqs_.size(), 0);
  probe_outcome_.assign(reqs_.size(), kPending);
  probe_answered_.assign(reqs_.size(), 0);
  probes_.reserve(1 << 20);
  return true;
}

void Generator::build_schedule() {
  ReadStream reads(opts_.spec);
  util::Rng arrivals(opts_.spec.seed ^ 0xA5A5A5A5ull);
  int64_t t0 = 0;
  for (std::size_t p = 0; p < opts_.phases.size(); ++p) {
    const Phase& phase = opts_.phases[p];
    phase_start_.push_back(t0);
    const auto count =
        static_cast<std::size_t>(std::llround(phase.rate * phase.seconds));
    const auto span = static_cast<int64_t>(phase.seconds * 1e9);
    // Poisson spacing rescaled to exactly `count` arrivals in the phase.
    std::vector<double> at(count);
    double sum = 0;
    for (std::size_t i = 0; i < count; ++i) {
      sum += arrivals.exponential(1.0);
      at[i] = sum;
    }
    const double total = sum + arrivals.exponential(1.0);
    for (std::size_t i = 0; i < count; ++i) {
      Request r;
      r.due = t0 + static_cast<int64_t>(at[i] / total * span);
      r.phase = static_cast<uint8_t>(p);
      const Read read = reads.next();
      r.name = read.name;
      r.ext = read.ext;
      reqs_.push_back(r);
    }
    t0 += span;
  }
  if (opts_.warm) {
    // Due times are set as each request leaves (warm_sender).
    phase_start_.push_back(0);
    for (uint32_t name = 0; name < opts_.spec.names; ++name) {
      Request r;
      r.name = name;
      reqs_.push_back(r);
    }
  }
  reads_total_ = reqs_.size();
  if (opts_.updates) {
    // Updates run across the schedule at a fixed Poisson rate; the tail
    // (a fifth of the run, at most a second) stays update-free so every
    // change can settle before the drain.
    const double horizon = t0 / 1e9 - std::min(1.0, 0.2 * t0 / 1e9);
    double t = 0;
    uint64_t k = opts_.spec.update_base;
    while (true) {
      t += arrivals.exponential(kUpdateRate);
      if (t >= horizon) break;
      const Update u = update_at(opts_.spec, k++);
      Request r;
      r.kind = kUpdate;
      r.due = static_cast<int64_t>(t * 1e9);
      r.name = u.name;
      r.version = u.version;
      r.phase = 0;
      for (std::size_t p = 0; p < phase_start_.size(); ++p) {
        if (phase_start_[p] <= r.due) r.phase = static_cast<uint8_t>(p);
      }
      reqs_.push_back(r);
      ++updates_total_;
      NameModel& m = model_[u.name];
      m.versions.push_back(u.version);
      m.addresses.push_back(address(opts_.spec.seed, u.name, u.version));
      m.issued.push_back(r.due);
      m.first_seen.push_back(0);
    }
    std::stable_sort(reqs_.begin(), reqs_.end(),
                     [](const Request& a, const Request& b) {
                       return a.due < b.due;
                     });
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      if (reqs_[i].kind == kUpdate) {
        update_wire_.push_back(
            update_message(opts_.spec, reqs_[i].name, reqs_[i].version, 0)
                .encode());
        reqs_[i].wire = static_cast<uint32_t>(update_wire_.size() - 1);
      }
    }
  }
}

void Generator::run() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  start_ = now_ns() + 20'000'000;  // let both threads settle first
  std::thread rx([this] {
    pin_current_thread(opts_.cpus.empty() ? -1 : opts_.cpus[1]);
    receiver();
  });
  pin_current_thread(opts_.cpus.empty() ? -1 : opts_.cpus[0]);
  if (opts_.warm) {
    warm_sender();
  } else {
    sender();
  }
  // Drain until every read, UPDATE and probe chain is answered, or each
  // has had its full timeout since the last send.
  const int64_t last_send = now_ns();
  while (true) {
    const int64_t t = now_ns();
    const bool reads = reads_answered_.load() < reads_total_ &&
                       t < last_send + kReadTimeoutNs;
    const bool updates = (updates_answered_.load() < updates_total_ ||
                          probes_finished_.load() < updates_total_) &&
                         t < last_send + kUpdateTimeoutNs;
    if (!reads && !updates) break;
    timespec ts{0, 20'000};
    nanosleep(&ts, nullptr);
  }
  stop_.store(true);
  rx.join();
  if (opts_.warm) {
    // The warm-up's phase is whatever it took.
    opts_.phases = {Phase{0, static_cast<double>(last_send - start_) / 1e9}};
    opts_.phases[0].rate =
        static_cast<double>(reqs_.size()) / opts_.phases[0].seconds;
  }
  for (auto& r : reqs_) {
    const int64_t limit = r.kind == kUpdate ? kUpdateTimeoutNs : kReadTimeoutNs;
    if (r.outcome == kPending ||
        (r.outcome == kOk && r.recv - (start_ + r.due) > limit)) {
      r.outcome = kTimeout;
    }
  }
}

void Generator::sender() {
  constexpr int kBatch = 64;
  const std::size_t nsock = fds_.size();
  std::vector<std::vector<std::vector<uint8_t>>> bufs(
      nsock, std::vector<std::vector<uint8_t>>(kBatch));
  std::vector<std::vector<uint32_t>> batch_idx(nsock);
  std::vector<mmsghdr> msgs(kBatch);
  std::vector<iovec> iov(kBatch);
  const std::size_t nread = opts_.targets.size();
  uint64_t read_seq = 0;
  std::size_t k = 0;
  while (k < reqs_.size()) {
    const int64_t due = start_ + reqs_[k].due;
    int64_t t = now_ns();
    if (due > t) {
      if (due - t > 200'000) {
        timespec ts{0, static_cast<long>(due - t - 100'000)};
        nanosleep(&ts, nullptr);
      }
      continue;
    }
    // Everything due now goes out in one sendmmsg per socket.
    for (auto& b : batch_idx) b.clear();
    while (k < reqs_.size() && start_ + reqs_[k].due <= t) {
      Request& r = reqs_[k];
      int sock = 0;
      const std::vector<uint8_t>* image = nullptr;
      if (r.kind == kUpdate) {
        sock = update_sock_;
        image = &update_wire_[r.wire];
      } else {
        sock = static_cast<int>(read_seq++ % nread);
        image = r.ext ? &ext_[r.name] : &plain_[r.name];
      }
      auto& b = batch_idx[sock];
      if (b.size() == kBatch) break;
      std::vector<uint8_t>& wire = bufs[sock][b.size()];
      wire = *image;
      const uint16_t id = next_id_[sock]++;
      wire[0] = static_cast<uint8_t>(id >> 8);
      wire[1] = static_cast<uint8_t>(id & 0xFF);
      b.push_back(static_cast<uint32_t>(k));
      ++k;
    }
    t = now_ns();
    for (std::size_t s = 0; s < nsock; ++s) {
      auto& b = batch_idx[s];
      if (b.empty()) continue;
      for (std::size_t i = 0; i < b.size(); ++i) {
        Request& r = reqs_[b[i]];
        r.sent = t;
        const uint8_t* w = bufs[s][i].data();
        const uint16_t id = static_cast<uint16_t>((w[0] << 8) | w[1]);
        inflight_[s][id].store(b[i] + 1, std::memory_order_release);
        if (r.kind == kUpdate) {
          const uint64_t head = probe_head_.load(std::memory_order_relaxed);
          probe_ring_[head % probe_ring_.size()] = b[i];
          probe_head_.store(head + 1, std::memory_order_release);
        }
        iov[i] = iovec{bufs[s][i].data(), bufs[s][i].size()};
        msgs[i] = mmsghdr{};
        msgs[i].msg_hdr.msg_iov = &iov[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      std::size_t off = 0;
      while (off < b.size()) {
        const int n = sendmmsg(fds_[s], msgs.data() + off,
                               static_cast<unsigned>(b.size() - off), 0);
        if (n < 0) {
          if (errno == EAGAIN || errno == EINTR) continue;
          break;  // counted as timeouts: the request never left
        }
        off += static_cast<std::size_t>(n);
      }
    }
  }
}

void Generator::warm_sender() {
  // Closed loop: the next name leaves as soon as fewer than kWarmWindow
  // are in flight.  Requests unanswered for a read timeout while the
  // window is full are presumed lost and stop holding it.
  std::vector<uint8_t> wire;
  std::size_t written_off = 0;
  std::size_t last_answered = 0;
  while (now_ns() < start_) {
  }
  int64_t last_progress = now_ns();
  for (std::size_t k = 0; k < reqs_.size();) {
    const std::size_t answered =
        reads_answered_.load(std::memory_order_acquire);
    const int64_t t = now_ns();
    if (answered != last_answered) {
      last_answered = answered;
      last_progress = t;
    }
    if (k - answered - written_off >= kWarmWindow) {
      if (t - last_progress > kReadTimeoutNs) {
        written_off = k - answered;
        last_progress = t;
      }
      continue;
    }
    Request& r = reqs_[k];
    wire = plain_[r.name];
    const uint16_t id = next_id_[0]++;
    wire[0] = static_cast<uint8_t>(id >> 8);
    wire[1] = static_cast<uint8_t>(id & 0xFF);
    r.due = t - start_;
    r.sent = t;
    inflight_[0][id].store(static_cast<uint32_t>(k + 1),
                           std::memory_order_release);
    while (send(fds_[0], wire.data(), wire.size(), 0) < 0 &&
           (errno == EAGAIN || errno == EINTR)) {
    }
    ++k;
  }
}

void Generator::finish_probe(uint32_t update, Outcome outcome) {
  probe_outcome_[update] = outcome;
  probe_done_[update] = 1;
  probes_finished_.fetch_add(1, std::memory_order_release);
}

void Generator::send_probe(uint32_t update, int64_t t) {
  const Request& u = reqs_[update];
  const uint16_t id = probe_next_id_++;
  std::vector<uint8_t> wire = plain_[u.name];
  wire[0] = static_cast<uint8_t>(id >> 8);
  wire[1] = static_cast<uint8_t>(id & 0xFF);
  probes_.push_back(Probe{update, t});
  probe_by_id_[id] = static_cast<uint32_t>(probes_.size());
  probe_pending_[update] = t;
  probe_answered_[update] = 0;
  ++probes_sent_;
  (void)send(fds_[probe_sock_], wire.data(), wire.size(), 0);
}

Outcome Generator::check_answer(uint32_t name, const uint8_t* data,
                                std::size_t len, int64_t t, int64_t sent,
                                uint32_t* version) {
  if (!dns::MessageView::parse_into(std::span<const uint8_t>(data, len),
                                    view_)
           .ok()) {
    return kMalformed;
  }
  if (view_.flags.rcode != dns::Rcode::kNoError) return kRcode;
  if (!opts_.validate) return kOk;
  if (view_.questions.size() != 1 ||
      view_.questions[0].qname.label_count() != 3 ||
      view_.questions[0].qname.label(0) != first_label_[name]) {
    return kMalformed;
  }
  uint32_t addr = 0;
  bool found = false;
  for (const auto& rr : view_.answers) {
    if (rr.type == dns::RRType::kA && rr.rdata.bytes.size() == 4) {
      const auto* b = rr.rdata.bytes.data();
      addr = (uint32_t{b[0]} << 24) | (uint32_t{b[1]} << 16) |
             (uint32_t{b[2]} << 8) | b[3];
      found = true;
      break;
    }
  }
  if (!found) return kMalformed;
  NameModel& m = model_[name];
  std::size_t v = 0;
  while (v < m.addresses.size() && m.addresses[v] != addr) ++v;
  if (v == m.addresses.size() || start_ + m.issued[v] > t) return kWrong;
  // Roll-back: a newer version was already served before this request
  // left, yet this answer carries an older one.
  for (std::size_t w = v + 1; w < m.addresses.size(); ++w) {
    if (m.first_seen[w] != 0 && m.first_seen[w] < sent) {
      ++rollbacks_;
      break;
    }
  }
  if (v > 0 && (m.first_seen[v] == 0 || t < m.first_seen[v])) {
    m.first_seen[v] = t;
  }
  *version = m.versions[v];
  return kOk;
}

void Generator::on_datagram(int sock, const uint8_t* data, std::size_t len,
                            int64_t t) {
  if (len < 12 || (data[2] & 0x80) == 0) {
    ++stray_;
    return;
  }
  const uint16_t id = static_cast<uint16_t>((data[0] << 8) | data[1]);
  uint32_t version = 0;
  if (sock == probe_sock_) {
    const uint32_t slot = probe_by_id_[id];
    if (slot == 0) {
      ++stray_;
      return;
    }
    probe_by_id_[id] = 0;
    const Probe& p = probes_[slot - 1];
    Request& u = reqs_[p.update];
    const Outcome o = check_answer(u.name, data, len, t, p.sent, &version);
    if (probe_done_[p.update]) {
      // A late answer to a resent probe: it can still fail the update.
      if (o != kOk) probe_outcome_[p.update] = o;
      return;
    }
    if (o != kOk) {
      finish_probe(p.update, o);  // fails the update it probes
      return;
    }
    if (version >= u.version) {
      finish_probe(p.update, kPending);
    } else {
      probe_answered_[p.update] = 1;  // the receiver loop sends the next
    }
    return;
  }
  const uint32_t slot = inflight_[sock][id].load(std::memory_order_acquire);
  if (slot == 0) {
    ++stray_;
    return;
  }
  Request& r = reqs_[slot - 1];
  if (r.recv != 0) {
    ++stray_;
    return;
  }
  r.recv = t;
  if (r.kind == kRead) reads_answered_.fetch_add(1, std::memory_order_release);
  if (r.kind == kUpdate) {
    updates_answered_.fetch_add(1, std::memory_order_relaxed);
    if (!dns::MessageView::parse_into(std::span<const uint8_t>(data, len),
                                      view_)
             .ok()) {
      r.outcome = kMalformed;
    } else {
      r.outcome = view_.flags.rcode == dns::Rcode::kNoError ? kOk : kRcode;
    }
    return;
  }
  r.outcome = check_answer(r.name, data, len, t, r.sent, &version);
}

void Generator::receiver() {
  constexpr int kBatch = 64;
  std::vector<std::array<uint8_t, 1500>> bufs(kBatch);
  std::vector<mmsghdr> msgs(kBatch);
  std::vector<iovec> iov(kBatch);
  // Probes of one changed name go back to back, but at most one per
  // kProbeGap, so polling does not swamp the cache it measures; a probe
  // unanswered for kProbeRetry is presumed lost and resent.
  constexpr int64_t kProbeGap = 250'000;
  constexpr int64_t kProbeRetry = 50'000'000;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (std::size_t s = 0; s < fds_.size(); ++s) {
      for (int i = 0; i < kBatch; ++i) {
        iov[i] = iovec{bufs[i].data(), bufs[i].size()};
        msgs[i] = mmsghdr{};
        msgs[i].msg_hdr.msg_iov = &iov[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = recvmmsg(fds_[s], msgs.data(), kBatch, MSG_DONTWAIT,
                             nullptr);
      if (n <= 0) continue;
      const int64_t t = now_ns();
      for (int i = 0; i < n; ++i) {
        on_datagram(static_cast<int>(s), bufs[i].data(), msgs[i].msg_len, t);
      }
    }
    if (probe_sock_ >= 0) {
      const uint64_t head = probe_head_.load(std::memory_order_acquire);
      while (probe_tail_ < head) {
        const uint32_t u = probe_ring_[probe_tail_++ % probe_ring_.size()];
        probing_.push_back(u);
        send_probe(u, now_ns());
      }
      const int64_t t = now_ns();
      std::erase_if(probing_,
                    [this](uint32_t u) { return probe_done_[u] != 0; });
      for (const uint32_t u : probing_) {
        const int64_t since = t - probe_pending_[u];
        if ((probe_answered_[u] && since >= kProbeGap) ||
            since >= kProbeRetry) {
          send_probe(u, t);
        }
      }
    }
    // Busy-poll even when idle: the receiver owns its CPU, and waking from
    // a sleep would add the host's wake-up delay to the next answer's time.
  }
}

double Generator::offered_qps(std::size_t phase) const {
  // Reads of the phase that actually left before the phase ended.
  const int64_t begin = start_ + phase_start_[phase];
  const int64_t end = begin + static_cast<int64_t>(
                                  opts_.phases[phase].seconds * 1e9);
  uint64_t sent = 0;
  for (const auto& r : reqs_) {
    if (r.kind == kRead && r.phase == phase && r.sent != 0 && r.sent <= end) {
      ++sent;
    }
  }
  return static_cast<double>(sent) / opts_.phases[phase].seconds;
}

void put_series(std::FILE* f, const std::string& name,
                const std::vector<uint32_t>& values) {
  const auto len = static_cast<uint16_t>(name.size());
  const auto count = static_cast<uint32_t>(values.size());
  std::fwrite(&len, sizeof len, 1, f);
  std::fwrite(name.data(), 1, name.size(), f);
  std::fwrite(&count, sizeof count, 1, f);
  std::fwrite(values.data(), sizeof(uint32_t), values.size(), f);
}

uint32_t clamp_ns(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

bool Generator::write_results() const {
  const std::size_t np = opts_.phases.size();
  std::vector<std::vector<uint32_t>> lat(np), lag(np);
  std::vector<uint64_t> attempted(np), ok(np), timeouts(np), rcode(np),
      malformed(np), wrong(np);
  std::vector<uint32_t> upd_rtt, stale;
  uint64_t upd_attempted = 0, upd_failed = 0, never_consistent = 0;
  uint64_t probe_rcode = 0, probe_malformed = 0, probe_wrong = 0;
  for (std::size_t i = 0; i < reqs_.size(); ++i) {
    const Request& r = reqs_[i];
    if (r.kind == kUpdate) {
      ++upd_attempted;
      switch (probe_outcome_[i]) {
        case kRcode: ++probe_rcode; break;
        case kMalformed: ++probe_malformed; break;
        case kWrong: ++probe_wrong; break;
        default: break;
      }
      if (r.outcome != kOk || probe_outcome_[i] != kPending) {
        ++upd_failed;
        continue;
      }
      upd_rtt.push_back(clamp_ns(r.recv - (start_ + r.due)));
      // Consistent at the first answer carrying this or a newer version.
      const NameModel& m = model_[r.name];
      int64_t seen = 0;
      for (std::size_t v = 0; v < m.first_seen.size(); ++v) {
        if (m.versions[v] >= r.version && m.first_seen[v] != 0 &&
            (seen == 0 || m.first_seen[v] < seen)) {
          seen = m.first_seen[v];
        }
      }
      if (seen == 0) {
        ++never_consistent;
      } else {
        stale.push_back(clamp_ns(seen - (start_ + r.due)));
      }
      continue;
    }
    const std::size_t p = r.phase;
    ++attempted[p];
    lag[p].push_back(clamp_ns(r.sent - (start_ + r.due)));
    switch (r.outcome) {
      case kOk:
        ++ok[p];
        lat[p].push_back(clamp_ns(r.recv - (start_ + r.due)));
        break;
      case kTimeout: ++timeouts[p]; break;
      case kRcode: ++rcode[p]; break;
      case kWrong: ++wrong[p]; break;
      default: ++malformed[p]; break;
    }
  }
  if (!opts_.samples.empty()) {
    std::FILE* f = std::fopen(opts_.samples.c_str(), "wb");
    if (f == nullptr) return false;
    for (std::size_t p = 0; p < np; ++p) {
      put_series(f, "read_ns." + std::to_string(p), lat[p]);
      put_series(f, "lag_ns." + std::to_string(p), lag[p]);
    }
    put_series(f, "update_ns", upd_rtt);
    put_series(f, "stale_ns", stale);
    std::fclose(f);
  }
  if (!opts_.trace.empty()) {
    // Spans of every 8th read: the request from due to answer, split into
    // its queueing in the generator and its wait on the server.
    std::FILE* f = std::fopen(opts_.trace.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span_id,parent_id,request_id,name,start_ns,end_ns\n");
    unsigned long long span = 0;
    for (std::size_t i = 0; i < reqs_.size(); i += 8) {
      const Request& r = reqs_[i];
      if (r.kind != kRead || r.outcome != kOk) continue;
      const long long due = start_ + r.due;
      const unsigned long long root = ++span;
      std::fprintf(f, "%llu,0,%zu,gen.request,%lld,%lld\n", root, i, due,
                   static_cast<long long>(r.recv));
      std::fprintf(f, "%llu,%llu,%zu,gen.queue,%lld,%lld\n", ++span, root, i,
                   due, static_cast<long long>(r.sent));
      std::fprintf(f, "%llu,%llu,%zu,gen.wait,%lld,%lld\n", ++span, root, i,
                   static_cast<long long>(r.sent),
                   static_cast<long long>(r.recv));
    }
    std::fclose(f);
  }
  std::FILE* f = opts_.out.empty() ? stdout : std::fopen(opts_.out.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"phases\": [");
  for (std::size_t p = 0; p < np; ++p) {
    std::fprintf(
        f,
        "%s{\"rate\": %.1f, \"seconds\": %.3f, \"offered_qps\": %.3f, "
        "\"attempted\": %llu, \"ok\": %llu, \"timeouts\": %llu, "
        "\"rcode_errors\": %llu, \"malformed\": %llu, \"wrong\": %llu}",
        p ? ", " : "", opts_.phases[p].rate, opts_.phases[p].seconds,
        offered_qps(p), static_cast<unsigned long long>(attempted[p]),
        static_cast<unsigned long long>(ok[p]),
        static_cast<unsigned long long>(timeouts[p]),
        static_cast<unsigned long long>(rcode[p]),
        static_cast<unsigned long long>(malformed[p]),
        static_cast<unsigned long long>(wrong[p]));
  }
  std::fprintf(f,
               "], \"updates\": {\"attempted\": %llu, \"failed\": %llu, "
               "\"never_consistent\": %llu, \"probes\": %llu, "
               "\"probe_rcode_errors\": %llu, \"probe_malformed\": %llu, "
               "\"probe_wrong\": %llu}, "
               "\"rollbacks\": %llu, \"stray\": %llu, \"sockets\": %zu}\n",
               static_cast<unsigned long long>(upd_attempted),
               static_cast<unsigned long long>(upd_failed),
               static_cast<unsigned long long>(never_consistent),
               static_cast<unsigned long long>(probes_sent_),
               static_cast<unsigned long long>(probe_rcode),
               static_cast<unsigned long long>(probe_malformed),
               static_cast<unsigned long long>(probe_wrong),
               static_cast<unsigned long long>(rollbacks_),
               static_cast<unsigned long long>(stray_), fds_.size());
  if (f != stdout) std::fclose(f);
  return true;
}

bool parse_endpoint(const char* text, net::Endpoint* out) {
  std::string error;
  auto ep = net::parse_endpoint(text, &error);
  if (!ep.has_value()) {
    std::fprintf(stderr, "loadgen: bad endpoint %s: %s\n", text,
                 error.c_str());
    return false;
  }
  *out = *ep;
  return true;
}

bool parse_common(int argc, char** argv, Options& opts) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr && arg != "--warm") {
      std::fprintf(stderr, "loadgen: %s needs a value\n", arg.c_str());
      return false;
    }
    if (arg == "--warm") {
      opts.warm = true;
      continue;
    }
    ++i;
    if (arg == "--seed") {
      opts.spec.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--names") {
      opts.spec.names = std::strtoull(v, nullptr, 10);
    } else if (arg == "--zipf") {
      opts.spec.zipf_s = std::atof(v);
    } else if (arg == "--ext-fraction") {
      opts.spec.ext_fraction = std::atof(v);
    } else if (arg == "--update-base") {
      opts.spec.update_base = std::strtoull(v, nullptr, 10);
    } else if (arg == "--target") {
      net::Endpoint ep;
      if (!parse_endpoint(v, &ep)) return false;
      opts.targets.push_back(ep);
    } else if (arg == "--update-target") {
      if (!parse_endpoint(v, &opts.update_target)) return false;
      opts.updates = true;
    } else if (arg == "--phase") {
      Phase p;
      if (std::sscanf(v, "%lf:%lf", &p.rate, &p.seconds) != 2 ||
          p.rate <= 0 || p.seconds <= 0) {
        std::fprintf(stderr, "loadgen: bad --phase %s (RATE:SECONDS)\n", v);
        return false;
      }
      opts.phases.push_back(p);
    } else if (arg == "--out") {
      opts.out = v;
    } else if (arg == "--samples") {
      opts.samples = v;
    } else if (arg == "--trace") {
      opts.trace = v;
    } else {
      std::fprintf(stderr, "loadgen: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (opts.spec.names == 0 || opts.spec.names > 1000000) return false;
  if (opts.phases.size() > 200) return false;
  return true;
}

int cmd_zone(const Options& opts) {
  const dns::Zone zone = make_zone(opts.spec);
  const auto status = dns::save_zone_file(zone, opts.out);
  if (!status.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", status.error().to_string().c_str());
    return 1;
  }
  return 0;
}

int cmd_run(Options opts) {
  const bool schedule = opts.warm ? opts.phases.empty() && opts.targets.size() == 1
                                  : !opts.phases.empty();
  if (opts.targets.empty() || opts.targets.size() > 2 || !schedule ||
      (opts.updates && (opts.targets.size() != 1 || opts.warm))) {
    std::fprintf(stderr,
                 "loadgen run: 1-2 --target and at least one --phase, or "
                 "one --target and --warm; --update-target needs exactly "
                 "one --target\n");
    return 2;
  }
  Generator gen(std::move(opts));
  if (!gen.setup()) return 1;
  gen.run();
  return gen.write_results() ? 0 : 1;
}

/// Offered-rate self-test: the generator against an in-process echo
/// socket that turns every query into a response.  Passes when each
/// rate's offered load is within 1% of its target.
int cmd_selftest(const std::vector<int>& cpus) {
  // The reference rates of the workloads, and the first ladder step.
  constexpr double kRates[] = {10000, 20000, 40000};
  constexpr double kSeconds = 2;
  const int echo = socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t alen = sizeof addr;
  const int buf = 8 << 20;
  setsockopt(echo, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  timeval tv{0, 100000};
  setsockopt(echo, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  if (echo < 0 || bind(echo, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ||
      getsockname(echo, reinterpret_cast<sockaddr*>(&addr), &alen)) {
    std::fprintf(stderr, "selftest: echo socket failed\n");
    return 1;
  }
  std::atomic<bool> stop{false};
  std::thread echoer([&] {
    uint8_t packet[1500];
    while (!stop.load()) {
      sockaddr_in from{};
      socklen_t flen = sizeof from;
      const ssize_t n = recvfrom(echo, packet, sizeof packet, 0,
                                 reinterpret_cast<sockaddr*>(&from), &flen);
      if (n < 12) continue;
      packet[2] |= 0x80;  // QR: the generator only accepts responses
      sendto(echo, packet, static_cast<std::size_t>(n), 0,
             reinterpret_cast<sockaddr*>(&from), flen);
    }
  });
  bool pass = true;
  for (const double rate : kRates) {
    Options opts;
    opts.spec.names = 1000;
    opts.validate = false;
    opts.cpus = cpus;
    opts.targets.push_back(
        net::Endpoint{ntohl(addr.sin_addr.s_addr), ntohs(addr.sin_port)});
    opts.phases.push_back(Phase{rate, kSeconds});
    Generator gen(opts);
    if (!gen.setup()) {
      pass = false;
      break;
    }
    gen.run();
    const double offered = gen.offered_qps(0);
    const double err = std::fabs(offered - rate) / rate;
    const bool ok = err <= 0.01;
    pass = pass && ok;
    std::printf("selftest rate %.0f q/s: offered %.1f q/s (%.3f%% off) %s\n",
                rate, offered, 100 * err, ok ? "ok" : "FAIL");
  }
  stop.store(true);
  echoer.join();
  close(echo);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Read before any thread pins itself to one of them.
  std::vector<int> cpus;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  if (cpus.size() < 2) cpus.clear();  // one CPU: leave placement to the OS
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "selftest" && argc == 2) return cmd_selftest(cpus);
  Options opts;
  opts.cpus = cpus;
  if ((cmd != "zone" && cmd != "run") || !parse_common(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: loadgen zone --seed S --names N --out FILE\n"
                 "       loadgen run --seed S --names N --target ip:port "
                 "(--phase RATE:SECONDS ... | --warm)\n"
                 "                   [--zipf s] [--ext-fraction f] "
                 "[--update-target ip:port]\n"
                 "                   [--out F] [--samples F] [--trace F]\n"
                 "       loadgen selftest\n");
    return 2;
  }
  return cmd == "zone" ? cmd_zone(opts) : cmd_run(std::move(opts));
}
