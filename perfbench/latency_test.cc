// Tests of the generator's latency accounting, driven by an injected clock.
//
//   (a) two pipelined requests sent in one write get their own latencies,
//       not the batch round trip divided by two;
//   (b) in the open loop a stalled reply raises the latency of every later
//       due op, because each op is charged from when it was due.
//
// Build and run: cmake --build <dir> --target pb_latency_test &&
// <dir>/pb_latency_test (exit 0 = pass).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/pipeline.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

struct FakeClock {
  uint64_t now = 1000;
  perfbench::Clock fn() {
    return [this] { return now; };
  }
};

struct Sample {
  perfbench::OpKind kind;
  uint64_t latency;
};

void PipelinedGetAndSet() {
  FakeClock clk;
  perfbench::Session s(clk.fn());
  std::string req;
  perfbench::AppendCommand(&req, "GET", "k");
  s.Enqueue({perfbench::OpKind::kGet, 1, 0, 0}, req);
  req.clear();
  perfbench::AppendCommand(&req, "SET", "k", "v");
  s.Enqueue({perfbench::OpKind::kSet, 1, 1, 0}, req);
  s.Stamp();  // both leave in one write at t=1000

  std::vector<Sample> got;
  auto rec = [&](const perfbench::InflightOp& op,
                 const jnvm::server::RespReply&, uint64_t lat) {
    got.push_back({op.kind, lat});
  };
  clk.now = 1010;  // the GET's reply is parsed first...
  Expect(s.Feed("$1\r\nv\r\n", 7, rec), "GET reply parses");
  clk.now = 1050;  // ...the SET's 40 ns later, in a separate read
  Expect(s.Feed("+OK\r\n", 5, rec), "SET reply parses");

  Expect(got.size() == 2, "two replies");
  Expect(got[0].kind == perfbench::OpKind::kGet && got[0].latency == 10,
         "GET latency is its own (10), not RT/n (30)");
  Expect(got[1].kind == perfbench::OpKind::kSet && got[1].latency == 50,
         "SET latency is its own (50), not RT/n (30)");
  Expect(s.inflight() == 0, "queue drained");
}

void StallChargedToLaterDueOps() {
  FakeClock clk;
  perfbench::Session s(clk.fn());
  std::string get;
  perfbench::AppendCommand(&get, "GET", "k");
  // Ops due at 1000, 1010, 1020, 1030. The first reply stalls until 1100;
  // the generator was stuck behind it and only sends the other three then.
  s.Enqueue({perfbench::OpKind::kGet, 1, 0, 1000}, get);
  std::vector<uint64_t> lat;
  auto rec = [&](const perfbench::InflightOp&, const jnvm::server::RespReply&,
                 uint64_t l) { lat.push_back(l); };
  clk.now = 1100;
  for (uint64_t due : {1010, 1020, 1030}) {
    s.Enqueue({perfbench::OpKind::kGet, 1, 0, due}, get);
  }
  Expect(s.Stamp() == 0, "open-loop ops keep their due time");
  Expect(s.Feed("$1\r\nv\r\n", 7, rec), "stalled reply");
  for (uint64_t t : {1101, 1102, 1103}) {
    clk.now = t;
    Expect(s.Feed("$1\r\nv\r\n", 7, rec), "later reply");
  }
  Expect(lat.size() == 4, "four replies");
  Expect(lat[0] == 100, "stalled op: 100");
  // Charged from the send time these would read 1, 2, 3.
  Expect(lat[1] == 91 && lat[2] == 82 && lat[3] == 73,
         "ops due during the stall pay for it: 91, 82, 73");
}

void ArrivalsAreSeeded() {
  perfbench::Arrivals a(10'000, 7, 0), b(10'000, 7, 0), c(10'000, 8, 0);
  bool same = true, differ = false;
  for (int i = 0; i < 1000; ++i) {
    same &= a.due() == b.due();
    differ |= a.due() != c.due();
    a.Advance();
    b.Advance();
    c.Advance();
  }
  Expect(same && differ, "arrivals depend on the seed alone");
  // 1000 arrivals at 10k/s span ~0.1 s.
  Expect(a.due() > 80'000'000 && a.due() < 120'000'000, "arrival rate");
}

void StampsRoundTrip() {
  const std::string v = perfbench::MakeValue(42, 7, 100);
  Expect(v.size() == 100, "value size");
  Expect(perfbench::StampVersion(42, v, 100) == 7, "stamp parses");
  Expect(perfbench::StampVersion(43, v, 100) == -1, "other key's value");
  std::string torn = v;
  torn[60] = torn[60] == 'a' ? 'b' : 'a';
  Expect(perfbench::StampVersion(42, torn, 100) == -1, "torn body");
}

}  // namespace

int main() {
  PipelinedGetAndSet();
  StallChargedToLaterDueOps();
  ArrivalsAreSeeded();
  StampsRoundTrip();
  if (g_failures == 0) {
    std::printf("pb_latency_test: all passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
