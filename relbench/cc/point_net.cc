// point-net: the wire path and cross-request micro-batching.
//
// One generator thread drives kConns loopback TCP connections to an
// in-process NetServer and pipelines 1-row predicts to two UDF-centric
// models: the fraud FFNN (most requests) and Caching-FFNN (a
// minority). Phase 1 is an open loop of Poisson arrivals at a fixed
// rate below saturation, each request timed from when it was due;
// phase 2 is a closed loop with a fixed window of outstanding requests
// per connection, measuring saturation throughput. Every reply is
// matched by request id and checked against the oracle. A traced run
// adds phase 3: the same open-loop stream replayed straight into the
// RequestScheduler, whose latency the wire round trip is compared to.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "common/io_util.h"
#include "graph/model_zoo.h"
#include "harness.h"
#include "net/server.h"
#include "net/wire.h"
#include "oracle.h"

namespace relbench {

using relserve::Result;
using relserve::Status;
using relserve::Tensor;

namespace {

constexpr int kConns = 4;
// One intra-op worker per session: with the default pool (one worker
// per vCPU) run-to-run spread on a shared 4-vCPU host exceeds any
// usable bound (README, "Settings").
constexpr int kSessionThreads = 1;
constexpr int kSetupReps = 9;
// Offered load of the open-loop phase: about half of the closed-loop
// saturation rate measured on the reference host (README).
constexpr double kOfferedRate = 3000.0;
constexpr int kWindowPerConn = 16;  // closed-loop outstanding requests
constexpr double kCachingShare = 0.1;
constexpr int kFraudPool = 4096;
constexpr int kCachingPool = 256;
constexpr double kWarmupSeconds = 0.5;
constexpr int64_t kWindowNs = 500'000'000;
// Closed-loop requests live in a ring, so the generator's memory does
// not grow with throughput (peak_rss_mib measures the program).
constexpr uint64_t kRing = 1 << 12;
const char* const kFraud = "fraud";
const char* const kCaching = "Caching-FFNN";

struct Pool {
  std::string model;
  std::vector<Tensor> rows;  // [1, dim] each
  std::vector<std::vector<double>> oracle;
};

Result<std::vector<Tensor>> MakeRows(int n, int64_t dim,
                                     std::mt19937_64* rng) {
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  std::vector<Tensor> rows;
  for (int i = 0; i < n; ++i) {
    RELSERVE_ASSIGN_OR_RETURN(Tensor t,
                              Tensor::Create(relserve::Shape{1, dim}));
    for (int64_t j = 0; j < dim; ++j) t.data()[j] = u(*rng);
    rows.push_back(std::move(t));
  }
  return rows;
}

// One request as the generator sees it.
struct Req {
  uint64_t id = 0;
  uint8_t pool = 0;  // 0 fraud, 1 caching
  int index = 0;
  int conn = 0;
  int64_t due_ns = 0, send_ns = 0, done_ns = 0;
  bool ok = false;
};

// A deterministic request stream: model choice and pool entry per
// request, Poisson gaps for the open loop.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}
  Req Next() {
    Req r;
    r.pool = share_(rng_) < kCachingShare ? 1 : 0;
    std::uniform_int_distribution<int> pick(
        0, (r.pool == 0 ? kFraudPool : kCachingPool) - 1);
    r.index = pick(rng_);
    return r;
  }
  // The open-loop schedule: Poisson due times, as offsets from the
  // start, over `seconds`; connections taken round robin.
  std::vector<Req> Plan(double seconds, int conns) {
    const double end = seconds * 1e9;
    std::vector<Req> reqs;
    for (double due = 0;;) {
      due += gap_(rng_) * 1e9;
      if (due >= end) break;
      Req r = Next();
      r.due_ns = static_cast<int64_t>(due);
      r.conn = static_cast<int>(reqs.size() % conns);
      reqs.push_back(r);
    }
    return reqs;
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> share_{0.0, 1.0};
  std::exponential_distribution<double> gap_{kOfferedRate};
};

struct Serving {
  std::unique_ptr<relserve::ServingSession> session;
  std::unique_ptr<relserve::RequestScheduler> scheduler;
  std::unique_ptr<relserve::net::NetServer> server;
  std::vector<int> fds;

  ~Serving() {
    for (int fd : fds) ::close(fd);
    if (server) server->Shutdown();
    if (scheduler) scheduler->Shutdown();
  }
};

Status Connect(uint16_t port, std::vector<int>* fds) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (int c = 0; c < kConns; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::IOError("socket failed");
    fds->push_back(fd);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IOError(std::string("connect: ") +
                             std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return Status::OK();
}

// Models (their weights generated from the seed stand in for loading
// them), session, scheduler, server and connections, default configs
// throughout; returns the seconds until the first request can be sent.
Result<double> SetUp(const Args& args, Tracer* tracer, Serving* s) {
  const int64_t t0 = NowNs();
  relserve::zoo::FcSpec spec = relserve::zoo::Table1FcSpecs(1.0)[0];
  spec.name = kFraud;
  RELSERVE_ASSIGN_OR_RETURN(relserve::Model fraud,
                            relserve::zoo::BuildFromSpec(spec, args.seed));
  RELSERVE_ASSIGN_OR_RETURN(relserve::Model caching,
                            relserve::zoo::BuildCachingFfnn(args.seed + 1));
  relserve::ServingConfig config;
  config.spill_path = args.workdir + "/spill.db";
  config.num_threads = kSessionThreads;
  s->session = std::make_unique<relserve::ServingSession>(config);
  RELSERVE_RETURN_NOT_OK(s->session->status());
  RELSERVE_RETURN_NOT_OK(s->session->RegisterModel(std::move(fraud)));
  RELSERVE_RETURN_NOT_OK(s->session->RegisterModel(std::move(caching)));
  for (const char* name : {kFraud, kCaching}) {
    const int64_t d0 = NowNs();
    RELSERVE_RETURN_NOT_OK(
        s->session->Deploy(name, relserve::ServingMode::kForceUdf, 256)
            .status());
    tracer->Record("optimizer.deploy", d0, NowNs());
  }
  s->scheduler = std::make_unique<relserve::RequestScheduler>(
      s->session.get(), relserve::SchedulerConfig{});
  RELSERVE_ASSIGN_OR_RETURN(
      s->server,
      relserve::net::NetServer::Start(s->session.get(), s->scheduler.get(),
                                      relserve::net::NetServerConfig{}));
  RELSERVE_RETURN_NOT_OK(Connect(s->server->port(), &s->fds));
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

// The single-threaded generator: epoll over every connection plus a
// timerfd armed at the next due time.
class Generator {
 public:
  Generator(const std::vector<int>& fds, const std::vector<Pool>& pools,
            Report* report)
      : fds_(fds), pools_(pools), report_(report), conns_(fds.size()) {}

  ~Generator() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (timer_fd_ >= 0) ::close(timer_fd_);
  }

  Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
    if (epoll_fd_ < 0 || timer_fd_ < 0) {
      return Status::IOError("epoll/timerfd create failed");
    }
    for (size_t c = 0; c <= fds_.size(); ++c) {
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(c);
      const int fd = c < fds_.size() ? fds_[c] : timer_fd_;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        return Status::IOError("epoll_ctl failed");
      }
    }
    return Status::OK();
  }

  // Open loop: sends each request of `reqs` when it is due.
  Status OpenLoop(std::vector<Req>* reqs) {
    reqs_ = reqs;
    const int64_t start = NowNs();
    for (Req& r : *reqs) r.due_ns += start;
    size_t next = 0;
    while (next < reqs->size() || outstanding_ > 0) {
      const int64_t now = NowNs();
      while (next < reqs->size() && (*reqs)[next].due_ns <= now) {
        RELSERVE_RETURN_NOT_OK(Send(next));
        ++next;
      }
      RELSERVE_RETURN_NOT_OK(Flush());
      if (next < reqs->size()) ArmTimer((*reqs)[next].due_ns);
      RELSERVE_RETURN_NOT_OK(Poll(next < reqs->size()));
    }
    return Status::OK();
  }

  // Closed loop: kWindowPerConn outstanding per connection for
  // `seconds`, completions binned into `sat`.
  Status ClosedLoop(Stream* stream, double seconds, EndToEnd* sat) {
    ring_.assign(kRing, Req{});
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    sat->StartSaturation(start, end);
    sat_ = sat;
    closed_stream_ = stream;
    closed_end_ns_ = end;
    for (size_t c = 0; c < fds_.size(); ++c) {
      for (int w = 0; w < kWindowPerConn; ++w) {
        RELSERVE_RETURN_NOT_OK(SendClosed(static_cast<int>(c)));
      }
    }
    RELSERVE_RETURN_NOT_OK(Flush());
    while (outstanding_ > 0) {
      RELSERVE_RETURN_NOT_OK(Poll(false));
      RELSERVE_RETURN_NOT_OK(Flush());
    }
    closed_stream_ = nullptr;
    sat_ = nullptr;
    return Status::OK();
  }

  int64_t closed_sent() const { return closed_sent_; }
  int64_t closed_failed() const { return closed_failed_; }

 private:
  struct Conn {
    relserve::net::Buffer in, out;
  };

  Status Send(size_t i) { return Transmit((*reqs_)[i], i); }

  Status Transmit(Req& r, uint64_t id) {
    const Pool& pool = pools_[r.pool];
    relserve::net::AppendPredictRequest(id, pool.model, pool.rows[r.index],
                                        0, &conns_[r.conn].out);
    r.id = id;
    r.send_ns = NowNs();
    ++outstanding_;
    return Status::OK();
  }

  Status SendClosed(int conn) {
    const uint64_t id = closed_sent_++;
    Req& r = ring_[id % kRing];
    if (r.send_ns != 0 && r.done_ns == 0) {
      return Status::Internal("closed-loop ring overflow");
    }
    r = closed_stream_->Next();
    r.conn = conn;
    return Transmit(r, id);
  }

  Status Flush() {
    for (size_t c = 0; c < fds_.size(); ++c) {
      relserve::net::Buffer& out = conns_[c].out;
      while (!out.empty()) {
        const ssize_t n =
            relserve::io::WriteSome(fds_[c], out.data(), out.size());
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          return Status::IOError(std::string("write: ") +
                                 std::strerror(errno));
        }
        out.Consume(static_cast<size_t>(n));
      }
    }
    return Status::OK();
  }

  void ArmTimer(int64_t due_ns) {
    itimerspec spec;
    std::memset(&spec, 0, sizeof(spec));
    // steady_clock is CLOCK_MONOTONIC on Linux, so due times are
    // absolute timerfd deadlines. Never arm 0 (that disarms).
    const int64_t at = std::max<int64_t>(due_ns, 1);
    spec.it_value.tv_sec = at / 1000000000;
    spec.it_value.tv_nsec = at % 1000000000;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  Status Poll(bool timer_armed) {
    epoll_event events[16];
    bool pending_out = false;
    for (const Conn& c : conns_) pending_out |= !c.out.empty();
    const int timeout_ms = pending_out ? 0 : 5000;
    const int n = static_cast<int>(relserve::io::RetryEintr([&] {
      return ::epoll_wait(epoll_fd_, events, 16, timeout_ms);
    }));
    if (n == 0 && !pending_out) {
      if (timer_armed) return Status::OK();
      return Status::IOError("no reply for 5 s with " +
                             std::to_string(outstanding_) +
                             " requests outstanding");
    }
    for (int i = 0; i < n; ++i) {
      const uint32_t c = events[i].data.u32;
      if (c == fds_.size()) {
        uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      RELSERVE_RETURN_NOT_OK(Receive(static_cast<int>(c)));
    }
    return Status::OK();
  }

  Status Receive(int c) {
    Conn& conn = conns_[c];
    while (true) {
      constexpr size_t kChunk = 64 * 1024;
      char* span = conn.in.WritableSpan(kChunk);
      const ssize_t r = relserve::io::ReadSome(fds_[c], span, kChunk);
      if (r > 0) {
        conn.in.CommitWrite(static_cast<size_t>(r));
        if (static_cast<size_t>(r) < kChunk) break;
        continue;
      }
      if (r == 0) return Status::IOError("server closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    while (conn.in.size() >= relserve::net::kLenPrefixBytes) {
      uint32_t frame_len = 0;
      std::memcpy(&frame_len, conn.in.data(), sizeof(frame_len));
      if (conn.in.size() < relserve::net::kLenPrefixBytes + frame_len) break;
      const char* frame = conn.in.data() + relserve::net::kLenPrefixBytes;
      const int64_t now = NowNs();
      auto header = relserve::net::DecodeFrameHeader(frame, frame_len);
      if (!header.ok()) return header.status();
      auto reply = relserve::net::DecodeReply(
          *header, frame + relserve::net::kFrameHeaderBytes,
          frame_len - relserve::net::kFrameHeaderBytes);
      if (!reply.ok()) return reply.status();
      const uint64_t id = reply->header.request_id;
      Req* r = nullptr;
      if (sat_ != nullptr) {
        r = &ring_[id % kRing];
      } else if (id < reqs_->size()) {
        r = &(*reqs_)[id];
      }
      if (r == nullptr || r->id != id || r->send_ns == 0 || r->done_ns != 0) {
        report_->Mismatch("reply for unknown request id " +
                          std::to_string(id));
      } else {
        r->done_ns = now;
        --outstanding_;
        if (reply->status.ok()) {
          const Pool& pool = pools_[r->pool];
          const std::vector<double>& want = pool.oracle[r->index];
          r->ok = true;
          if (reply->tensor.NumElements() !=
                  static_cast<int64_t>(want.size()) ||
              !Close(reply->tensor.data(), want,
                     static_cast<int64_t>(want.size()))) {
            report_->Mismatch("reply " + std::to_string(id) + " (" +
                              pool.model + " input " +
                              std::to_string(r->index) +
                              ") differs from the oracle");
          }
        }
        if (sat_ != nullptr) {
          if (r->ok) {
            sat_->Complete(now, 1.0, 1.0);
          } else {
            ++closed_failed_;
          }
          if (now < closed_end_ns_) RELSERVE_RETURN_NOT_OK(SendClosed(c));
        }
      }
      conn.in.Consume(relserve::net::kLenPrefixBytes + frame_len);
    }
    return Status::OK();
  }

  const std::vector<int>& fds_;
  const std::vector<Pool>& pools_;
  Report* report_;
  std::vector<Conn> conns_;
  std::vector<Req>* reqs_ = nullptr;  // open loop: indexed by request id
  std::vector<Req> ring_;             // closed loop: by id % kRing
  EndToEnd* sat_ = nullptr;           // set while the closed loop runs
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int64_t outstanding_ = 0;
  Stream* closed_stream_ = nullptr;
  int64_t closed_end_ns_ = 0;
  int64_t closed_sent_ = 0;
  int64_t closed_failed_ = 0;
};

// Phase 3 (traced runs only): the open-loop stream of `seed`, submitted
// straight to the scheduler at the same due times.
Status Replay(uint64_t seed, double seconds,
              relserve::RequestScheduler* scheduler,
              const std::vector<Pool>& pools, Tracer* tracer,
              Report* report) {
  // Shared with the completion callbacks, which may outlive an early
  // return below.
  struct State {
    std::vector<Req> reqs;
    std::vector<Tensor> outputs;
    std::atomic<int64_t> remaining{0};
  };
  auto st = std::make_shared<State>();
  st->reqs = Stream(seed).Plan(seconds, kConns);
  st->outputs.resize(st->reqs.size());
  st->remaining = static_cast<int64_t>(st->reqs.size());
  const int64_t start = NowNs();
  for (Req& r : st->reqs) r.due_ns += start;
  for (size_t i = 0; i < st->reqs.size(); ++i) {
    Req& r = st->reqs[i];
    const int64_t wait = r.due_ns - NowNs();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    r.send_ns = NowNs();
    const Pool& pool = pools[r.pool];
    scheduler->SubmitBatchCallback(
        pool.model, pool.rows[r.index], 0, [st, i](Result<Tensor> out) {
          st->reqs[i].done_ns = NowNs();
          if (out.ok()) {
            st->reqs[i].ok = true;
            st->outputs[i] = std::move(*out);
          }
          st->remaining.fetch_sub(1, std::memory_order_release);
        });
  }
  const int64_t give_up = NowNs() + 10'000'000'000;
  while (st->remaining.load(std::memory_order_acquire) > 0) {
    if (NowNs() > give_up) return Status::IOError("replay stalled");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::vector<Req>& reqs = st->reqs;
  const std::vector<Tensor>& outputs = st->outputs;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Req& r = reqs[i];
    const std::vector<double>& want = pools[r.pool].oracle[r.index];
    if (!r.ok) {
      report->Mismatch("replayed request failed");
    } else if (outputs[i].NumElements() !=
                   static_cast<int64_t>(want.size()) ||
               !Close(outputs[i].data(), want,
                      static_cast<int64_t>(want.size()))) {
      report->Mismatch("replayed reply differs from the oracle");
    }
    tracer->Record("serving.request", r.send_ns, r.done_ns, 0, 0, i);
  }
  return Status::OK();
}

}  // namespace

Status RunPointNet(const Args& args, Tracer* tracer, Report* report) {
  EndToEnd e2e;
  e2e.window_ns = kWindowNs;
  auto serving = std::make_unique<Serving>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    serving = std::make_unique<Serving>();
    RELSERVE_ASSIGN_OR_RETURN(double secs,
                              SetUp(args, tracer, serving.get()));
    e2e.setup_s.push_back(secs);
  }

  // Request inputs and their oracle outputs.
  std::mt19937_64 rng(args.seed * 7919 + 1);
  std::vector<Pool> pools(2);
  pools[0].model = kFraud;
  pools[1].model = kCaching;
  for (Pool& pool : pools) {
    RELSERVE_ASSIGN_OR_RETURN(const relserve::Model* model,
                              serving->session->GetModel(pool.model));
    RELSERVE_ASSIGN_OR_RETURN(OracleNet oracle, OracleNet::FromModel(*model));
    const int n = &pool == &pools[0] ? kFraudPool : kCachingPool;
    RELSERVE_ASSIGN_OR_RETURN(pool.rows, MakeRows(n, oracle.in_dim(), &rng));
    std::vector<float> flat;
    for (const Tensor& t : pool.rows) {
      flat.insert(flat.end(), t.data(), t.data() + t.NumElements());
    }
    pool.oracle = oracle.ForwardRows(flat.data(), n, 4);
  }

  Probes probes;
  probes.session = serving->session.get();
  probes.scheduler = serving->scheduler.get();
  probes.server = serving->server.get();
  probes.models = {kFraud, kCaching};
  RecordPlanFacts(probes, tracer);

  Generator gen(serving->fds, pools, report);
  RELSERVE_RETURN_NOT_OK(gen.Init());
  std::vector<Req> warm =
      Stream(args.seed * 31 + 5).Plan(kWarmupSeconds, kConns);
  RELSERVE_RETURN_NOT_OK(gen.OpenLoop(&warm));

  const double phase = args.seconds / 2;
  Snapshot s0 = Capture(probes);
  std::vector<Req> open = Stream(args.seed).Plan(phase, kConns);
  RELSERVE_RETURN_NOT_OK(gen.OpenLoop(&open));
  Snapshot s1 = Capture(probes);
  // Program CPU at saturation: the process's minus this (generator)
  // thread's.
  const int64_t cpu1 = ProcessCpuNs() - ThreadCpuNs();
  Stream closed_stream(args.seed * 131 + 17);
  RELSERVE_RETURN_NOT_OK(gen.ClosedLoop(&closed_stream, phase, &e2e));
  e2e.cpu_ns = ProcessCpuNs() - ThreadCpuNs() - cpu1;
  Snapshot s2 = Capture(probes);
  tracer->Counters("open.", Delta(s0, s1));
  tracer->Counters("sat.", Delta(s1, s2));
  tracer->Counter("sat.seconds", phase);
  tracer->Counter("open.seconds", phase);

  for (const std::vector<Req>* phase_reqs : {&warm, &open}) {
    for (const Req& r : *phase_reqs) {
      ++report->attempted;
      if (!r.ok) ++report->failed;
    }
  }
  report->attempted += gen.closed_sent();
  report->failed += gen.closed_failed();
  for (double rows : e2e.window_rows) e2e.cpu_rows += rows;
  for (size_t i = 0; i < open.size(); ++i) {
    const Req& r = open[i];
    if (!r.ok) continue;
    e2e.latency.push_back(
        {r.due_ns, static_cast<double>(r.done_ns - r.due_ns) * 1e-6});
    if (tracer->enabled()) {
      const uint64_t id = tracer->NewId();
      tracer->Record("client.request", r.due_ns, r.done_ns, id, 0, i);
      tracer->Record("gen.lag", r.due_ns, r.send_ns, tracer->NewId(), id, i);
      tracer->Record("net.roundtrip", r.send_ns, r.done_ns, tracer->NewId(),
                     id, i);
    }
  }

  if (tracer->enabled()) {
    Snapshot r0 = Capture(probes);
    RELSERVE_RETURN_NOT_OK(Replay(args.seed, phase,
                                  serving->scheduler.get(), pools, tracer,
                                  report));
    tracer->Counters("replay.", Delta(r0, Capture(probes)));
  }
  tracer->Counter("mem.peak_bytes",
                  serving->session->working_memory()->peak_bytes());
  ReportEndToEnd(e2e, report);
  return Status::OK();
}

}  // namespace relbench
