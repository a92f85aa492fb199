#include "serve.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>

#include "e3/experiment.hh"
#include "e3/platform.hh"
#include "env/env_registry.hh"
#include "evolve.hh"
#include "nn/batch_eval.hh"
#include "nn/compile.hh"
#include "persist/checkpoint.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench {

using namespace e3;
using namespace e3::serve;
namespace fs = std::filesystem;

namespace {

constexpr double kLimitSeconds = 1e-3;   ///< the latency limit
constexpr size_t kObsPerChampion = 32;   ///< observation pool size
constexpr size_t kCacheSlots = 3;
constexpr size_t kBatchLanes = 16;       ///< ServeOptions::maxBatchSize
constexpr double kLowRate = 10000.0;     ///< req/s
constexpr double kWindowSeconds = 0.1;   ///< slice of windowed statistics
/**
 * Tail percentile of the high-rate latency. p90, not p99: on a shared
 * host the p99 at any rate is set by hypervisor steal (it read 0.4 ms
 * to 9 ms between cycles of one run), so it measures the host.
 */
constexpr double kServeTailQ = 0.9;
/**
 * The high-rate tail is the kServeTailQ latency of each slice of this
 * many consecutive requests (10 beyond the p90; 3.3 ms of due times at
 * 30k req/s, 10 ms at 10k), and then the median over every slice of
 * the run. A host stall and its backlog spoil the slices they overlap.
 * Freezing the process for 2-8 ms every 50 ms on average (8% of the
 * time) lifted whole-phase p90s from 0.35-0.42 ms to 0.9-1.2 ms; the
 * median slice moved by 3% or less.
 */
constexpr uint64_t kTailSliceRequests = 100;
constexpr int kFixtureGenerations = 6;
constexpr size_t kFixturePopulation = 48;

/** Champions, traffic mix and fixed high rate of one serve workload. */
struct ServeWorkload
{
    std::vector<std::string> envs; ///< champion i evolves against envs[i]
    double hotShare = -1.0;        ///< share of champion 0; < 0 uniform
    double highRate = 0.0;         ///< req/s
};

/**
 * serve-hot: three champions, all resident in the 3-slot cache.
 * serve-churn: 70% of the traffic to one champion, the rest spread
 * over a tail of four distinct champions (two per environment, as a
 * server holding several versions of a task would) that cannot share
 * the two remaining slots, so tail lookups miss and compile in the
 * request path. No serving trace exists: this mix is an assumption.
 * The high rates sit at about a fifth (serve-hot) and a third
 * (serve-churn) of the 1 ms-limit capacity measured on one CPU of a
 * shared host; nearer the knee the host's millisecond stalls, not the
 * program, set the high-rate tail.
 */
ServeWorkload
serveWorkload(const std::string &name)
{
    if (name == "serve-hot")
        return {{"cartpole", "lunar_lander", "pendulum"}, -1.0, 30000.0};
    return {{"lunar_lander", "bipedal_walker", "acrobot", "bipedal_walker",
             "lunar_lander"},
            0.7,
            10000.0};
}

/** A loaded champion with its requests and reference answers. */
struct Champion
{
    ChampionSource source;
    uint64_t fingerprint = 0;
    NetworkDef def;
    std::vector<std::vector<double>> observations;
    std::vector<std::vector<double>> expected; ///< compileNetwork outputs
};

/**
 * The traffic mix: which champion and which observation request k
 * uses, a pure function of the seed and the request id.
 */
struct Mix
{
    std::vector<Champion> champions;
    double hotShare = -1.0; ///< share of champion 0; < 0 uniform
    uint64_t seed = 0;

    std::pair<size_t, size_t>
    pick(uint64_t requestId) const
    {
        const uint64_t h = mix64(seed * 0x100000001B3ULL ^ requestId);
        const size_t n = champions.size();
        size_t c = static_cast<size_t>(h % n);
        if (hotShare >= 0.0 && n > 1) {
            const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
            c = u < hotShare ? 0
                             : 1 + static_cast<size_t>(mix64(h) % (n - 1));
        }
        return {c, static_cast<size_t>(mix64(h ^ 0x5bd1e995ULL) %
                                       kObsPerChampion)};
    }
};

/**
 * Load a champion the way a user of the server would hand it over,
 * and build its expected-action table through an independent
 * compileNetwork of the same def — never the server's replicated batch
 * engine.
 */
Champion
loadChampion(const ChampionSource &source, uint64_t seed, size_t index)
{
    Champion c;
    c.source = source;
    Result<uint64_t> fp = persist::manifestFingerprint(source.checkpointDir);
    assertOk(fp.status());
    c.fingerprint = *fp;
    Result<persist::Checkpoint> ck =
        persist::loadLatestCheckpoint(source.checkpointDir, *fp);
    assertOk(ck.status());
    if (!ck->champion)
        e3_fatal("fixture ", source.checkpointDir, " has no champion");
    const EnvSpec &spec = envSpec(source.envName);
    c.def = ck->champion->toNetworkDef(NeatConfig::forTask(
        spec.numInputs, spec.numOutputs, spec.requiredFitness));
    Result<std::unique_ptr<Network>> net = compileNetwork(c.def);
    assertOk(net.status());
    for (size_t j = 0; j < kObsPerChampion; ++j) {
        std::vector<double> obs(spec.numInputs);
        for (size_t k = 0; k < obs.size(); ++k) {
            const uint64_t h =
                mix64(seed ^ mix64(index * 1000003 + j * 1009 + k));
            obs[k] = static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
        }
        (*net)->reset();
        c.expected.push_back((*net)->activate(obs));
        c.observations.push_back(std::move(obs));
    }
    return c;
}

std::string
fixtureDir(const std::string &root, size_t index, const std::string &env)
{
    return root + "/" + std::to_string(index) + "-" + env;
}

/** One champion evolved against its real environment. */
void
evolveFixture(const std::string &env, uint64_t seed, const std::string &dir)
{
    fs::remove_all(dir);
    ExperimentOptions opts;
    opts.seed = seed;
    opts.populationSize = kFixturePopulation;
    Result<std::unique_ptr<EvalBackend>> backend =
        BackendRegistry::instance().create("cpu-batch", opts,
                                           envSpec(env));
    assertOk(backend.status());
    PlatformConfig cfg;
    cfg.envName = env;
    cfg.seed = seed;
    cfg.populationSize = kFixturePopulation;
    cfg.maxGenerations = kFixtureGenerations;
    cfg.threads = 4;
    cfg.checkpointDir = dir;
    cfg.checkpointEvery = kFixtureGenerations;
    cfg.checkpointKeep = 1;
    E3Platform platform(cfg, std::move(backend).value());
    platform.neatConfig().fitnessThreshold =
        std::numeric_limits<double>::infinity();
    (void)platform.run();
}

/** Results of one open-loop phase, or of several merged. */
struct PhaseResult
{
    double rate = 0.0;
    uint64_t scheduled = 0;
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t ok = 0;         ///< Ok with the expected action
    uint64_t okWithin = 0;   ///< ... answered within the limit
    uint64_t overloaded = 0;
    uint64_t otherStatus = 0;
    uint64_t decodeErrors = 0;
    uint64_t wrongAction = 0;
    std::vector<double> latency;     ///< seconds from due, Ok only
    std::vector<double> lateLatency; ///< same, last quarter of the phase
    std::vector<double> lag;         ///< seconds from due to sent
    /** latency, split into slices of kTailSliceRequests requests */
    std::vector<std::vector<double>> sliceLatency;
    /** Per kWindowSeconds slice of due times: requests due, answered
     *  Ok within the limit, and sent later than the limit. */
    std::vector<uint64_t> dueByWindow;
    std::vector<uint64_t> okWithinByWindow;
    std::vector<uint64_t> lateSendByWindow;
    double encodeNs = 0.0;
    double decodeNs = 0.0;
    uint64_t encodes = 0;
    uint64_t decodes = 0;

    uint64_t notOk() const { return scheduled - ok; }

    void
    merge(const PhaseResult &o)
    {
        scheduled += o.scheduled;
        sent += o.sent;
        received += o.received;
        ok += o.ok;
        okWithin += o.okWithin;
        overloaded += o.overloaded;
        otherStatus += o.otherStatus;
        decodeErrors += o.decodeErrors;
        wrongAction += o.wrongAction;
        latency.insert(latency.end(), o.latency.begin(), o.latency.end());
        lateLatency.insert(lateLatency.end(), o.lateLatency.begin(),
                           o.lateLatency.end());
        lag.insert(lag.end(), o.lag.begin(), o.lag.end());
        sliceLatency.insert(sliceLatency.end(), o.sliceLatency.begin(),
                            o.sliceLatency.end());
        addInto(dueByWindow, o.dueByWindow);
        addInto(okWithinByWindow, o.okWithinByWindow);
        addInto(lateSendByWindow, o.lateSendByWindow);
        encodeNs += o.encodeNs;
        decodeNs += o.decodeNs;
        encodes += o.encodes;
        decodes += o.decodes;
    }

  private:
    static void
    addInto(std::vector<uint64_t> &into, const std::vector<uint64_t> &from)
    {
        into.resize(std::max(into.size(), from.size()), 0);
        for (size_t i = 0; i < from.size(); ++i)
            into[i] += from[i];
    }
};

/** Slice of due times that the windowed statistics work over. */
size_t
windowOf(uint64_t seq, double rate)
{
    return static_cast<size_t>(static_cast<double>(seq) / rate /
                               kWindowSeconds);
}

/** Per-request client timestamps of a traced phase. */
struct RequestSpans
{
    std::vector<int64_t> encoded;
    std::vector<int64_t> sent;
    std::vector<int64_t> answered;
};

/** A blocking TCP_NODELAY client socket connected to 127.0.0.1:port. */
int
connectLoopback(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        e3_fatal("socket: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0)
        e3_fatal("connect: ", std::strerror(errno));
    return fd;
}

/** The request with id @p id of @p mix, framed for the wire. */
std::string
framedRequest(const Mix &mix, uint64_t id)
{
    const auto [c, j] = mix.pick(id);
    InferRequest req;
    req.requestId = id;
    req.fingerprint = mix.champions[c].fingerprint;
    req.observation = mix.champions[c].observations[j];
    return frame(encodeRequest(req));
}

/** True when @p resp is Ok and bit-equal to the expected action. */
bool
answeredRight(const Mix &mix, const InferResponse &resp)
{
    const auto [c, j] = mix.pick(resp.requestId);
    const std::vector<double> &want = mix.champions[c].expected[j];
    return resp.status == StatusCode::Ok &&
           resp.action.size() == want.size() &&
           std::memcmp(resp.action.data(), want.data(),
                       want.size() * sizeof(double)) == 0;
}

/**
 * The client connection of one open-loop phase. pump() sends every
 * request that is due (several in one write when the generator woke
 * late) and reads whatever answers arrived, timing each from its
 * request's due time. Request seq of the phase carries id firstId + seq.
 */
class LoadConnection
{
  public:
    LoadConnection(uint16_t port, uint64_t firstId, const Mix &mix,
                   bool trace)
        : fd_(connectLoopback(port)), firstId_(firstId), mix_(mix),
          trace_(trace)
    {
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    }

    ~LoadConnection() { ::close(fd_); }

    LoadConnection(const LoadConnection &) = delete;
    LoadConnection &operator=(const LoadConnection &) = delete;

    /**
     * Send for @p seconds from @p t0, then keep reading until every
     * request sent is answered or @p deadline passes.
     */
    void
    start(Clock::time_point t0, double rate, double seconds,
          Clock::time_point deadline)
    {
        t0_ = t0;
        rate_ = rate;
        deadline_ = deadline;
        total_ = static_cast<uint64_t>(std::llround(rate * seconds));
        res_.rate = rate;
        res_.scheduled = total_;
        res_.lag.reserve(total_);
        res_.latency.reserve(total_);
        const size_t windows = total_ ? windowOf(total_ - 1, rate) + 1 : 0;
        res_.dueByWindow.assign(windows, 0);
        res_.okWithinByWindow.assign(windows, 0);
        res_.lateSendByWindow.assign(windows, 0);
        res_.sliceLatency.assign((total_ + kTailSliceRequests - 1) /
                                     kTailSliceRequests,
                                 {});
        for (uint64_t s = 0; s < total_; ++s)
            ++res_.dueByWindow[windowOf(s, rate)];
        if (trace_) {
            spans_.encoded.assign(total_, 0);
            spans_.sent.assign(total_, 0);
            spans_.answered.assign(total_, 0);
        }
    }

    /**
     * Send what is due, read what arrived; true while the connection
     * still has requests to send or answers to wait for.
     */
    bool
    pump()
    {
        if (seq_ < total_ && dueOf(seq_) <= Clock::now())
            seq_ = enqueueDue(seq_, Clock::now());
        if (!flush() || !receive())
            return false; // server hung up; the rest count as missing
        const bool sendingDone = seq_ == total_ && out_.empty();
        return !sendingDone ||
               (res_.received < res_.sent && Clock::now() < deadline_);
    }

    /** When pump() next has work without the socket waking it. */
    Clock::time_point
    nextWake() const
    {
        return seq_ < total_ ? dueOf(seq_) : deadline_;
    }

    pollfd
    pollSpec() const
    {
        return pollfd{fd_,
                      static_cast<short>(POLLIN |
                                         (out_.empty() ? 0 : POLLOUT)),
                      0};
    }

    const PhaseResult &result() const { return res_; }
    const RequestSpans &spans() const { return spans_; }

    Clock::time_point
    dueOf(uint64_t seq) const
    {
        return t0_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(seq) / rate_));
    }

  private:
    /** Encode every request due by @p now into the output buffer. */
    uint64_t
    enqueueDue(uint64_t seq, Clock::time_point now)
    {
        while (seq < total_ && dueOf(seq) <= now) {
            const uint64_t id = firstId_ + seq;
            const auto [c, j] = mix_.pick(id);
            const Champion &champion = mix_.champions[c];
            InferRequest req;
            req.requestId = id;
            req.fingerprint = champion.fingerprint;
            req.observation = champion.observations[j];
            const int64_t t0 = trace_ ? nowNs() : 0;
            out_ += frame(encodeRequest(req));
            if (trace_) {
                const int64_t t1 = nowNs();
                res_.encodeNs += static_cast<double>(t1 - t0);
                ++res_.encodes;
                spans_.encoded[seq] = t1;
            }
            frameEnds_.emplace_back(out_.size(), seq);
            ++seq;
        }
        return seq;
    }

    /**
     * Write as much buffered output as the socket takes; a request
     * counts as sent (and its lag is taken) once its last byte is.
     */
    bool
    flush()
    {
        while (written_ < out_.size()) {
            const ssize_t n =
                ::send(fd_, out_.data() + written_, out_.size() - written_,
                       MSG_NOSIGNAL);
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (n <= 0)
                return false;
            written_ += static_cast<size_t>(n);
        }
        const Clock::time_point now = Clock::now();
        while (!frameEnds_.empty() && frameEnds_.front().first <= written_) {
            const uint64_t s = frameEnds_.front().second;
            const double lag =
                std::chrono::duration<double>(now - dueOf(s)).count();
            res_.lag.push_back(lag);
            if (lag > kLimitSeconds)
                ++res_.lateSendByWindow[windowOf(s, rate_)];
            if (trace_)
                spans_.sent[s] =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now.time_since_epoch())
                        .count();
            ++res_.sent;
            frameEnds_.pop_front();
        }
        if (written_ == out_.size()) {
            out_.clear();
            written_ = 0;
            frameEnds_.clear();
        }
        return true;
    }

    /** Drain the socket's receive queue; false once the peer closed. */
    bool
    receive()
    {
        char buf[1 << 15];
        for (;;) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;
            if (n <= 0)
                return false;
            const Clock::time_point now = Clock::now();
            frames_.feed(buf, static_cast<size_t>(n));
            for (;;) {
                std::string payload;
                const int64_t t0 = trace_ ? nowNs() : 0;
                Result<bool> got = frames_.next(payload);
                if (!got.ok()) {
                    ++res_.decodeErrors;
                    return false;
                }
                if (!*got)
                    break;
                Result<InferResponse> resp = decodeResponse(payload);
                if (trace_) {
                    res_.decodeNs += static_cast<double>(nowNs() - t0);
                    ++res_.decodes;
                }
                handle(resp, now);
            }
        }
    }

    void
    handle(const Result<InferResponse> &resp, Clock::time_point now)
    {
        if (!resp.ok()) {
            ++res_.decodeErrors;
            return;
        }
        const uint64_t seq = resp->requestId - firstId_;
        if (resp->requestId < firstId_ || seq >= total_) {
            ++res_.decodeErrors; // an answer to nothing we sent
            return;
        }
        ++res_.received;
        if (resp->status == StatusCode::Overloaded) {
            ++res_.overloaded;
            return;
        }
        if (resp->status != StatusCode::Ok) {
            ++res_.otherStatus;
            return;
        }
        if (!answeredRight(mix_, *resp)) {
            ++res_.wrongAction;
            return;
        }
        ++res_.ok;
        const double latency =
            std::chrono::duration<double>(now - dueOf(seq)).count();
        res_.latency.push_back(latency);
        res_.sliceLatency[seq / kTailSliceRequests].push_back(latency);
        if (seq * 4 >= total_ * 3)
            res_.lateLatency.push_back(latency);
        if (latency <= kLimitSeconds) {
            ++res_.okWithin;
            ++res_.okWithinByWindow[windowOf(seq, rate_)];
        }
        if (trace_)
            spans_.answered[seq] =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now.time_since_epoch())
                    .count();
    }

    int fd_ = -1;
    uint64_t firstId_;
    const Mix &mix_;
    bool trace_;
    Clock::time_point t0_;
    Clock::time_point deadline_;
    double rate_ = 1.0;
    uint64_t total_ = 0;
    uint64_t seq_ = 0;    ///< next request to enqueue
    std::string out_;     ///< encoded requests not yet fully written
    size_t written_ = 0;  ///< bytes of out_ already written
    std::deque<std::pair<size_t, uint64_t>> frameEnds_; ///< (end, seq)
    FrameReader frames_;
    PhaseResult res_;
    RequestSpans spans_;
};

/**
 * Drives open-loop phases against one server: each phase opens one
 * connection, and this thread both writes what is due and reads the
 * answers, so the generator does not crowd the server's threads off
 * the cores. Request ids run on across phases.
 */
class LoadGenerator
{
  public:
    LoadGenerator(uint16_t port, const Mix &mix) : port_(port), mix_(mix) {}

    PhaseResult
    phase(double rate, double seconds, bool trace = false,
          const std::string &spanPath = "")
    {
        LoadConnection conn(port_, nextId_, mix_, trace);
        const Clock::time_point t0 =
            Clock::now() + std::chrono::milliseconds(2);
        const Clock::time_point deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds + 0.25));
        conn.start(t0, rate, seconds, deadline);
        nextId_ += conn.result().scheduled;

        // Sleep until the next request is due or the socket wakes us.
        while (conn.pump()) {
            const auto ns = std::max<int64_t>(
                0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                       conn.nextWake() - Clock::now())
                       .count());
            const timespec ts{static_cast<time_t>(ns / 1000000000),
                              static_cast<long>(ns % 1000000000)};
            pollfd fd = conn.pollSpec();
            ::ppoll(&fd, 1, &ts, nullptr);
        }
        if (trace && !spanPath.empty())
            writeSpans(spanPath, conn);
        return conn.result();
    }

  private:
    static void
    writeSpans(const std::string &path, const LoadConnection &conn)
    {
        std::ofstream out(path);
        const RequestSpans &s = conn.spans();
        for (size_t k = 0; k < s.sent.size(); ++k) {
            const int64_t due =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    conn.dueOf(k).time_since_epoch())
                    .count();
            out << "{\"seq\": " << k << ", \"due_ns\": " << due
                << ", \"encoded_ns\": " << s.encoded[k]
                << ", \"sent_ns\": " << s.sent[k]
                << ", \"answered_ns\": " << s.answered[k] << "}\n";
        }
    }

    uint16_t port_;
    const Mix &mix_;
    uint64_t nextId_ = 0;
};

double
lagP99(const PhaseResult &r)
{
    return quantile(r.lag, 0.99);
}

/** The kServeTailQ latency of every slice of @p r that has samples. */
std::vector<double>
sliceTails(const PhaseResult &r)
{
    std::vector<double> tails;
    for (const std::vector<double> &slice : r.sliceLatency) {
        if (!slice.empty())
            tails.push_back(quantile(slice, kServeTailQ));
    }
    return tails;
}

/**
 * Median over the kWindowSeconds slices of num[i] / den[i]. A shared
 * host stalls every thread for milliseconds now and then; a stall
 * spoils one slice, not the verdict on the whole phase.
 */
double
windowShare(const std::vector<uint64_t> &num,
            const std::vector<uint64_t> &den)
{
    std::vector<double> shares;
    for (size_t i = 0; i < den.size(); ++i) {
        if (den[i] > 0)
            shares.push_back(static_cast<double>(num[i]) /
                             static_cast<double>(den[i]));
    }
    return median(shares);
}

/**
 * The generator kept to its schedule: in the median slice at most 1%
 * of the requests due were sent later than the latency limit.
 */
bool
valid(const PhaseResult &r)
{
    return windowShare(r.lateSendByWindow, r.dueByWindow) <= 0.01;
}

/**
 * The server meets the limit at this phase's rate: in the median slice
 * ≥ 99% of the requests due were answered Ok within 1 ms (a refused,
 * failed or unanswered request misses), the generator kept up, and
 * the last quarter's median latency stayed within the limit (no
 * growing backlog).
 */
bool
meetsLimit(const PhaseResult &r)
{
    return valid(r) &&
           windowShare(r.okWithinByWindow, r.dueByWindow) >= 0.99 &&
           median(r.lateLatency) <= kLimitSeconds;
}

/**
 * Whether the server sustains @p rate: a rate fails only when two
 * probes in a row miss, since a slow spell of the host can sink one
 * probe well below the knee and would end the ramp there.
 */
bool
sustains(LoadGenerator &load, double rate, double probeSeconds)
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        const PhaseResult r = load.phase(rate, probeSeconds);
        const bool pass = meetsLimit(r);
        std::fprintf(stderr,
                     "  probe %8.0f req/s: %s (ok within limit: %.4f "
                     "overall, %.4f median slice; lag p99 %.3f ms)\n",
                     rate, pass ? "pass" : "miss",
                     static_cast<double>(r.okWithin) /
                         static_cast<double>(r.scheduled),
                     windowShare(r.okWithinByWindow, r.dueByWindow),
                     lagP99(r) * 1e3);
        if (pass)
            return true;
    }
    return false;
}

/**
 * Highest offered rate meeting the limit: ramp by 1.25x from
 * @p startRate until a rate fails (or down by 1.25x until one passes),
 * then bisect geometrically five times (brackets the knee to within
 * 1%). Stops refining once @p maxSeconds have passed.
 */
double
capacitySearch(LoadGenerator &load, double startRate, double probeSeconds,
               double maxSeconds)
{
    const auto start = Clock::now();
    double lo = 0.0;
    double hi = 0.0;
    double rate = startRate;
    for (int i = 0; i < 12 && hi == 0.0; ++i) {
        if (sustains(load, rate, probeSeconds)) {
            lo = rate;
            rate *= 1.25;
        } else if (lo == 0.0) {
            rate /= 1.25;
        } else {
            hi = rate;
        }
    }
    for (int i = 0; i < 5 && hi > 0.0 && secondsSince(start) < maxSeconds;
         ++i) {
        const double mid = std::sqrt(lo * hi);
        (sustains(load, mid, probeSeconds) ? lo : hi) = mid;
    }
    return lo;
}

ServeOptions
serveOptions(const Mix &mix)
{
    ServeOptions opts;
    for (const Champion &c : mix.champions)
        opts.sources.push_back(c.source);
    opts.cacheCapacity = kCacheSlots;
    opts.maxBatchSize = kBatchLanes;
    opts.threads = 1;
    // Deep enough that a host stall of ~100 ms at the high rate shows
    // as latency rather than as refusals; past the knee the 1 ms limit
    // fails long before the queue fills, so capacity is unaffected.
    opts.maxQueueDepth = 4096;
    return opts;
}

/**
 * Confines the calling thread, and every thread it starts while this
 * lives, to one CPU: the last one it may run on. A serve session runs
 * under it, so the server's threads and the load generator share one
 * core. Spread over the cores of a shared VM, every hand-off between
 * them waits for the hypervisor to wake another vCPU; that wake-up,
 * not the program, then set the figures (the same saturation run read
 * 103k-110k req/s spread and 286k-289k req/s on one CPU, and the
 * high-rate tail 0.35-0.92 ms against 0.342-0.344 ms).
 */
class OneCpu
{
  public:
    OneCpu()
    {
        if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        int last = -1;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &saved_))
                last = cpu;
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(last, &one);
        pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
        if (!pinned_)
            std::fprintf(stderr, "warning: could not pin the serve "
                                 "session to one CPU\n");
    }

    ~OneCpu()
    {
        if (pinned_)
            ::sched_setaffinity(0, sizeof saved_, &saved_);
    }

    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

/** create + listen, the start-up cost a server user pays. */
std::unique_ptr<ChampionServer>
startServer(const Mix &mix, double &seconds)
{
    const auto t0 = Clock::now();
    Result<std::unique_ptr<ChampionServer>> created =
        ChampionServer::create(serveOptions(mix));
    assertOk(created.status());
    std::unique_ptr<ChampionServer> server = std::move(created).value();
    assertOk(server->listen(0));
    seconds = secondsSince(t0);
    return server;
}

void
checkPhase(const char *name, const PhaseResult &r, Outcome &outcome)
{
    outcome.attempted += r.scheduled;
    outcome.failed += r.notOk();
    if (r.wrongAction || r.decodeErrors || r.otherStatus) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "%s phase: %" PRIu64 " wrong actions, %" PRIu64
                      " undecodable, %" PRIu64 " unexpected statuses",
                      name, r.wrongAction, r.decodeErrors, r.otherStatus);
        outcome.gateFail(msg);
    }
    if (!valid(r))
        std::fprintf(stderr,
                     "  warning: %s phase invalid, generator lag p99 "
                     "%.3f ms exceeds the 1 ms limit\n",
                     name, lagP99(r) * 1e3);
    const double tailQ = tailQuantile(r.latency.size());
    std::fprintf(stderr,
                 "  %-5s %7.0f req/s: %" PRIu64 " due, %" PRIu64
                 " ok (%" PRIu64 " within 1 ms), %" PRIu64
                 " overloaded; p50 %.3f ms, p%.1f %.3f ms over %zu "
                 "samples; lag p99 %.3f ms\n",
                 name, r.rate, r.scheduled, r.ok, r.okWithin, r.overloaded,
                 median(r.latency) * 1e3, 100.0 * tailQ,
                 quantile(r.latency, tailQ) * 1e3, r.latency.size(),
                 lagP99(r) * 1e3);
}

/** In-process closed loop through ChampionServer::infer (no TCP). */
std::vector<double>
inprocLatencies(ChampionServer &server, const Mix &mix, double seconds,
                Outcome &outcome)
{
    std::vector<double> out;
    const auto start = Clock::now();
    for (uint64_t k = 0; secondsSince(start) < seconds; ++k) {
        const uint64_t id = (uint64_t{0xFFFFF} << 40) | k;
        const auto [c, j] = mix.pick(id);
        InferRequest req;
        req.requestId = id;
        req.fingerprint = mix.champions[c].fingerprint;
        req.observation = mix.champions[c].observations[j];
        const auto t0 = Clock::now();
        const InferResponse resp = server.infer(req);
        out.push_back(secondsSince(t0));
        ++outcome.attempted;
        if (!answeredRight(mix, resp)) {
            ++outcome.failed;
            outcome.gateFail("in-process infer answered wrongly");
            break;
        }
    }
    return out;
}

/**
 * Closed-loop saturation over one connection: keep kWindow requests
 * in flight, send a new one per answer, and count Ok answers per
 * second. This is the server's sustained throughput; a slow spell of
 * the host lowers it in proportion, where it would cut a latency-limit
 * search short. Every answer is checked against the expected table.
 */
double
saturationThroughput(uint16_t port, const Mix &mix, double seconds,
                     Outcome &outcome)
{
    constexpr uint64_t kWindow = 128; // ≤ the queue depth: no refusals
    // Ids apart from the generator's, which count up from 0.
    constexpr uint64_t kFirstId = uint64_t{0xFFFFE} << 40;
    const int fd = connectLoopback(port);
    uint64_t next = 0;
    uint64_t ok = 0;
    uint64_t wrong = 0;
    auto sendAll = [&](const std::string &bytes) {
        for (size_t off = 0; off < bytes.size();) {
            const ssize_t n = ::send(fd, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                e3_fatal("saturation send: ", std::strerror(errno));
            off += static_cast<size_t>(n);
        }
    };
    std::string out;
    while (next < kWindow)
        out += framedRequest(mix, kFirstId + next++);
    sendAll(out);

    const timeval timeout{2, 0}; // a stuck server fails, never hangs
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    FrameReader frames;
    char buf[1 << 15];
    const auto start = Clock::now();
    double elapsed = 0.0;
    bool broken = false;
    while (!broken && (elapsed = secondsSince(start)) < seconds) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        // A socket with a receive timeout is not restarted after a
        // stop and continue of the process; that is not a broken stream.
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        frames.feed(buf, static_cast<size_t>(n));
        out.clear();
        for (;;) {
            std::string payload;
            const Result<bool> got = frames.next(payload);
            broken = !got.ok();
            if (broken || !*got)
                break;
            const Result<InferResponse> resp = decodeResponse(payload);
            if (resp.ok() && answeredRight(mix, *resp))
                ++ok;
            else
                ++wrong;
            out += framedRequest(mix, kFirstId + next++);
        }
        sendAll(out);
    }
    ::close(fd);
    outcome.attempted += ok + wrong;
    outcome.failed += wrong;
    if (wrong || elapsed < seconds)
        outcome.gateFail("saturation phase: " + std::to_string(wrong) +
                         " answers not Ok with the expected action, " +
                         (elapsed < seconds ? "stream broke" : "stream ok"));
    return static_cast<double>(ok) / elapsed;
}

/**
 * Per-layer serve metrics of a traced session: warm-up, the low and
 * high phases with client spans, the in-process loop and a standalone
 * compile timing of every champion.
 */
void
tracedSession(const Args &args, const Mix &mix, double highRate,
              double phaseSeconds, Metrics &metrics, Outcome &outcome)
{
    const OneCpu oneCpu;
    double setup = 0.0;
    std::unique_ptr<ChampionServer> server = startServer(mix, setup);
    LoadGenerator load(server->port(), mix);
    PhaseResult warmLow = load.phase(kLowRate, 0.2);
    checkPhase("warm", warmLow, outcome);
    const PhaseResult low = load.phase(kLowRate, phaseSeconds, true,
                                       args.workDir + "/spans-serve.jsonl");
    checkPhase("low", low, outcome);
    // The server's summary is cumulative: read it now, so it and the
    // client figure both cover exactly the warm-up and low requests.
    warmLow.merge(low);
    const double frontendP50 =
        median(warmLow.latency) - server->latency().p50;
    const PhaseResult high = load.phase(highRate, phaseSeconds, true);
    checkPhase("high", high, outcome);
    const std::vector<double> inproc =
        inprocLatencies(*server, mix, 0.3, outcome);

    const LatencySummary serverLatency = server->latency();
    const ServerCounters counters = server->counters();
    const BatcherStats batcher = server->batcherStats();
    const GenomeCache &cache = server->cache();
    const double hits = static_cast<double>(cache.hits());
    const double misses = static_cast<double>(cache.misses());
    // Last, since its overload probes would swamp the counters above.
    const double capacity = capacitySearch(load, highRate,
                                           0.4 * phaseSeconds,
                                           8 * phaseSeconds);
    server->stop();

    std::vector<double> compileUs;
    for (const Champion &c : mix.champions) {
        std::vector<double> samples;
        for (int rep = 0; rep < 15; ++rep) {
            const auto t0 = Clock::now();
            Result<std::unique_ptr<BatchNetwork>> compiled =
                compileReplicated(c.def, kBatchLanes);
            samples.push_back(secondsSince(t0) * 1e6);
            assertOk(compiled.status());
        }
        compileUs.push_back(median(samples));
    }
    double compileMean = 0.0;
    for (double us : compileUs)
        compileMean += us / static_cast<double>(compileUs.size());

    PhaseResult both = low;
    both.merge(high);
    metrics.set("serve.server_p50_ms", serverLatency.p50 * 1e3, "ms");
    metrics.set("serve.server_p99_ms", serverLatency.p99 * 1e3, "ms");
    metrics.set("serve.frontend_p50_ms", frontendP50 * 1e3, "ms");
    metrics.set("serve.inproc_p50_us", median(inproc) * 1e6, "us");
    metrics.set("serve.capacity_rps", capacity, "1/s");
    metrics.set("serve.batch_mean",
                batcher.batches ? static_cast<double>(
                                      batcher.batchedRequests) /
                                      static_cast<double>(batcher.batches)
                                : 0.0,
                "count");
    metrics.set("serve.overloaded_share",
                counters.requests
                    ? static_cast<double>(counters.rejectedOverload) /
                          static_cast<double>(counters.requests)
                    : 0.0,
                "ratio");
    metrics.set("serve.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    metrics.set("serve.cache_misses", misses, "count");
    metrics.set("serve.compile_us_per_miss", compileMean, "us");
    metrics.set("protocol.encode_ns",
                both.encodes ? both.encodeNs /
                                   static_cast<double>(both.encodes)
                             : 0.0,
                "ns");
    metrics.set("protocol.decode_ns",
                both.decodes ? both.decodeNs /
                                   static_cast<double>(both.decodes)
                             : 0.0,
                "ns");
    metrics.set("loadgen.lag_p99_ms", lagP99(both) * 1e3, "ms");
}

} // namespace

bool
isServeWorkload(const std::string &workload)
{
    return workload == "serve-hot" || workload == "serve-churn";
}

void
buildServeFixtures(const Args &args)
{
    const ServeWorkload w = serveWorkload(args.workload);
    for (size_t i = 0; i < w.envs.size(); ++i)
        evolveFixture(w.envs[i], args.seed * 1000 + i,
                      fixtureDir(args.workDir, i, w.envs[i]));
}

void
runServeWorkload(const Args &args, const std::string &fixtures,
                 Metrics &metrics, Outcome &outcome)
{
    const ServeWorkload w = serveWorkload(args.workload);
    Mix mix;
    mix.seed = args.seed;
    mix.hotShare = w.hotShare;
    for (size_t i = 0; i < w.envs.size(); ++i)
        mix.champions.push_back(loadChampion(
            {fixtureDir(fixtures, i, w.envs[i]), w.envs[i]}, args.seed, i));

    if (args.trace) {
        // Evolve-side layers come from a traced fixture-style evolution
        // (LunarLander on INAX), gated like the evolve workloads.
        EvolveSpec fixture;
        fixture.env = "lunar_lander";
        fixture.backend = "inax";
        fixture.population = args.smoke ? 24 : kFixturePopulation;
        fixture.generations = args.smoke ? 2 : kFixtureGenerations;
        traceEvolveLayers(fixture, args.seed, args.workDir,
                          args.workDir + "/champion", metrics, outcome);
        tracedSession(args, mix, w.highRate, args.smoke ? 0.2 : 1.5,
                      metrics, outcome);
        return;
    }

    // Set-up: the server that serves, plus five more starts (create +
    // listen, then stop) in every cycle below, so the median samples
    // the whole run rather than one instant of it.
    const OneCpu oneCpu;
    std::vector<double> setupSeconds(1);
    const std::unique_ptr<ChampionServer> server =
        startServer(mix, setupSeconds[0]);
    auto measureSetups = [&] {
        for (int i = 0; i < 5; ++i) {
            double s = 0.0;
            startServer(mix, s)->stop();
            setupSeconds.push_back(s);
        }
    };

    // Ten cycles of (set-up, low, high, saturation) spread over the
    // run, each metric the median over its cycles: a slow spell of the
    // host spoils the cycles it covers, not a whole phase's figure.
    constexpr int kCycles = 10;
    const double cycle = args.seconds / kCycles;
    LoadGenerator load(server->port(), mix);
    checkPhase("warm", load.phase(kLowRate, 0.3), outcome);
    PhaseResult low;
    PhaseResult high;
    std::vector<double> lowP50;
    std::vector<double> highTail;
    std::vector<double> saturation;
    for (int c = 0; c < kCycles; ++c) {
        measureSetups();
        const PhaseResult l = load.phase(kLowRate, 0.25 * cycle);
        const PhaseResult h = load.phase(w.highRate, 0.3 * cycle);
        saturation.push_back(
            saturationThroughput(server->port(), mix, 0.35 * cycle,
                                 outcome));
        lowP50.push_back(median(l.latency));
        highTail.push_back(median(sliceTails(h)));
        low.merge(l);
        high.merge(h);
    }
    low.rate = kLowRate;
    high.rate = w.highRate;
    checkPhase("low", low, outcome);
    checkPhase("high", high, outcome);
    const double peakMb = peakRssMb();
    server->stop();

    metrics.set("throughput_per_s", median(saturation), "1/s");
    metrics.set("p50_ms", median(lowP50) * 1e3, "ms");
    metrics.set("tail_ms", median(sliceTails(high)) * 1e3, "ms");
    metrics.set("setup_s", median(setupSeconds), "s");
    metrics.set("peak_rss_mb", peakMb, "MB");
    std::fprintf(stderr, "%s: per cycle saturation req/s, low p50 ms, "
                         "high p90 ms (median slice):\n",
                 args.workload.c_str());
    for (int c = 0; c < kCycles; ++c)
        std::fprintf(stderr, "  %9.0f %8.3f %8.3f\n", saturation[c],
                     lowP50[c] * 1e3, highTail[c] * 1e3);
    std::fprintf(stderr,
                 "  high over the whole phase: p90 %.3f ms, p99 %.3f ms\n",
                 quantile(high.latency, kServeTailQ) * 1e3,
                 quantile(high.latency, 0.99) * 1e3);
    std::fprintf(
        stderr, "  fail share %.5f\n",
        outcome.attempted ? static_cast<double>(outcome.failed) /
                                static_cast<double>(outcome.attempted)
                          : 0.0);
    std::fprintf(stderr,
                 "  set-up over %zu starts: q1 %.3f ms, median %.3f ms, "
                 "q3 %.3f ms\n",
                 setupSeconds.size(), quantile(setupSeconds, 0.25) * 1e3,
                 median(setupSeconds) * 1e3,
                 quantile(setupSeconds, 0.75) * 1e3);
}

void
traceServeTail(const Args &args, const ServeTail &tail, Metrics &metrics,
               Outcome &outcome)
{
    Mix mix;
    mix.seed = args.seed;
    mix.champions.push_back(
        loadChampion({tail.championDir, tail.envName}, args.seed, 0));
    tracedSession(args, mix, 3 * kLowRate, args.smoke ? 0.2 : 1.0,
                  metrics, outcome);
}

} // namespace perfbench
