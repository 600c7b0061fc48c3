/// \file daemon_test.cc
/// \brief The deterministic protocol harness: every daemon path driven over
/// in-process socketpairs via `Daemon::AdoptConnection` — no ports, no
/// processes, TSan-clean.

#include "ppref/net/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "ppref/infer/top_prob.h"
#include "ppref/net/client.h"
#include "ppref/net/codec.h"
#include "ppref/net/json.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"
#include "ppref/serve/workload.h"

namespace ppref::net {
namespace {

/// An adopted socketpair: `client_fd` stays with the test, the peer end
/// belongs to the daemon.
int AdoptPair(Daemon& daemon) {
  int fds[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(daemon.AdoptConnection(fds[1]).ok());
  return fds[0];
}

/// Reads until EOF (daemon closed its end) with a poll bound per step.
std::string ReadUntilEof(int fd, int step_timeout_ms = 5000) {
  std::string all;
  char buffer[4096];
  while (true) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, step_timeout_ms) <= 0) break;
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    all.append(buffer, static_cast<std::size_t>(n));
  }
  return all;
}

/// True once the peer closed: poll reports readable and read returns 0.
bool WaitForEof(int fd, int timeout_ms = 5000) {
  char buffer[4096];
  while (true) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return false;
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

DaemonOptions AdoptOnlyOptions() {
  DaemonOptions options;
  options.port = -1;
  options.workers = 2;
  return options;
}

/// Sends all of `bytes` on `fd`.
void SendAll(int fd, const std::string& bytes) {
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// One HTTP exchange over a fresh adopted socketpair: POSTs `body` to
/// `target` and returns the raw response (the daemon closes after it).
std::string HttpPost(Daemon& daemon, const std::string& target,
                     const std::string& body) {
  const int fd = AdoptPair(daemon);
  const std::string request = "POST " + target +
                              " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  SendAll(fd, request);
  const std::string response = ReadUntilEof(fd);
  close(fd);
  return response;
}

/// The body of a raw HTTP response.
std::string HttpBody(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

/// A 4-item Mallows model over labels {0, 1, 0, 1} as request JSON fields
/// (no closing brace, so a caller can append its kind's own fields).
const char* const kModelJson =
    "{\"id\": 5,"
    " \"model\": {\"m\": 4, \"insertion\": {\"phi\": 0.5},"
    "  \"labels\": [[0], [1], [0], [1]]}";
const char* const kPatternJson =
    ", \"pattern\": {\"nodes\": [0, 1], \"edges\": [[0, 1]]}";

std::uint64_t CounterValue(Daemon& daemon, const std::string& name) {
  return daemon.server().registry().GetCounter(name).Value();
}

TEST(NetDaemonTest, BinaryQueryBitIdenticalToLocalInference) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(2);
  const double expected =
      infer::PatternProb(workload.models[0], workload.patterns[0]);

  Client client = Client::FromFd(AdoptPair(daemon));
  WireRequest request(11, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  StatusOr<WireResponse> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  EXPECT_EQ(response->id, 11u);
  EXPECT_EQ(response->probability, expected);
  EXPECT_FALSE(response->approximate);
  daemon.Stop();
}

TEST(NetDaemonTest, TopMatchingQueryMatchesLocalInference) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(2);
  const auto expected =
      infer::MostProbableTopMatching(workload.models[1], workload.patterns[1]);

  Client client = Client::FromFd(AdoptPair(daemon));
  WireRequest request(12, serve::Request::Kind::kTopMatching, 0,
                      workload.models[1], workload.patterns[1]);
  StatusOr<WireResponse> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok());
  ASSERT_EQ(response->top_matching.has_value(), expected.has_value());
  if (expected.has_value()) {
    EXPECT_EQ(*response->top_matching, expected->first);
    EXPECT_EQ(response->probability, expected->second);
  }
  daemon.Stop();
}

TEST(NetDaemonTest, PingPongRoundTrips) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client = Client::FromFd(AdoptPair(daemon));
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());
  daemon.Stop();
}

TEST(NetDaemonTest, BodyDecodeErrorKeepsConnectionUsable) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);

  // A well-framed request whose body is garbage: the daemon answers
  // kInvalidArgument on the same connection instead of dropping it.
  FrameAssembler assembler;  // carries partial bytes across both reads
  auto read_one_response = [&](WireResponse* out) {
    char buffer[4096];
    Frame frame;
    while (!assembler.Next(&frame)) {
      pollfd p{fd, POLLIN, 0};
      ASSERT_GT(poll(&p, 1, 10000), 0);
      const ssize_t n = read(fd, buffer, sizeof(buffer));
      ASSERT_GT(n, 0);
      ASSERT_TRUE(assembler.Feed(buffer, static_cast<std::size_t>(n)).ok());
    }
    ASSERT_EQ(frame.type, FrameType::kResponse);
    StatusOr<WireResponse> decoded = DecodeResponse(frame.body);
    ASSERT_TRUE(decoded.ok());
    *out = *decoded;
  };

  const std::string bad = EncodeFrame(FrameType::kRequest, "not-a-request");
  ASSERT_EQ(send(fd, bad.data(), bad.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bad.size()));
  WireResponse error;
  read_one_response(&error);
  EXPECT_EQ(error.status.code(), StatusCode::kInvalidArgument);

  // The same connection still serves a real query afterwards.
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  WireRequest request(21, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  const std::string good =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  ASSERT_EQ(send(fd, good.data(), good.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(good.size()));
  WireResponse response;
  read_one_response(&response);
  EXPECT_EQ(response.id, 21u);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, FramingErrorClosesConnection) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);
  // Valid magic (so the connection sniffs as binary), corrupt version byte:
  // a framing error, which must close the connection.
  std::string bad = EncodeFrame(FrameType::kRequest, "x");
  bad[4] = 9;
  ASSERT_GT(send(fd, bad.data(), bad.size(), MSG_NOSIGNAL), 0);
  EXPECT_TRUE(WaitForEof(fd));
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, OversizedDeclaredLengthClosesConnection) {
  DaemonOptions options = AdoptOnlyOptions();
  options.max_frame_body = 1024;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);

  std::string header = EncodeFrame(FrameType::kRequest, "x");
  header.resize(kFrameHeaderBytes);
  header[8] = static_cast<char>(0xff);
  header[9] = static_cast<char>(0xff);
  header[10] = static_cast<char>(0xff);
  header[11] = static_cast<char>(0x7f);
  ASSERT_GT(send(fd, header.data(), header.size(), MSG_NOSIGNAL), 0);
  EXPECT_TRUE(WaitForEof(fd));
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, PipelinedRequestsAnswerEveryId) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(3);
  std::string burst;
  for (std::uint64_t i = 0; i < 3; ++i) {
    WireRequest request(100 + i, serve::Request::Kind::kPatternProb, 0,
                        workload.models[i], workload.patterns[i]);
    burst += EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  }
  ASSERT_EQ(send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  // Responses may arrive in any order (worker pool); collect all three ids.
  FrameAssembler assembler;
  std::set<std::uint64_t> seen;
  char buffer[4096];
  while (seen.size() < 3) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(poll(&p, 1, 10000), 0) << "timed out with " << seen.size();
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    ASSERT_GT(n, 0);
    ASSERT_TRUE(assembler.Feed(buffer, static_cast<std::size_t>(n)).ok());
    Frame frame;
    while (assembler.Next(&frame)) {
      ASSERT_EQ(frame.type, FrameType::kResponse);
      StatusOr<WireResponse> response = DecodeResponse(frame.body);
      ASSERT_TRUE(response.ok());
      EXPECT_TRUE(response->status.ok());
      seen.insert(response->id);
    }
  }
  EXPECT_EQ(seen, (std::set<std::uint64_t>{100, 101, 102}));
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, BinarySweepBitIdenticalToPerPointDp) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  const infer::LabeledRimModel& model = workload.models[0];
  const infer::LabelPattern& pattern = workload.patterns[0];
  const unsigned m = model.model().size();

  std::vector<std::vector<double>> params;
  for (double phi : {0.2, 0.5, 0.8, 1.0}) params.push_back({phi});
  params.push_back(std::vector<double>(m, 0.7));

  Client client = Client::FromFd(AdoptPair(daemon));
  WireSweepRequest request(51, 0, model, pattern, params);
  StatusOr<WireSweepResponse> response = client.CallSweep(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  EXPECT_EQ(response->id, 51u);
  ASSERT_EQ(response->probabilities.size(), params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    const rim::InsertionFunction pi =
        params[p].size() == 1
            ? rim::InsertionFunction::Mallows(m, params[p][0])
            : rim::InsertionFunction::GeneralizedMallows(params[p]);
    const infer::LabeledRimModel rebound(
        rim::RimModel(model.model().reference(), pi), model.labeling());
    // Bit identity: the circuit path must reproduce the per-point DP answer
    // exactly, through the wire and back.
    EXPECT_EQ(response->probabilities[p], infer::PatternProb(rebound, pattern))
        << "point " << p;
  }
  daemon.Stop();
}

TEST(NetDaemonTest, HttpSweepOverSocketpairBitIdentical) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);

  const std::string body =
      "{\"id\": 6,"
      " \"model\": {\"m\": 4, \"insertion\": {\"phi\": 0.5},"
      "  \"labels\": [[0], [1], [0], [1]]},"
      " \"pattern\": {\"nodes\": [0, 1], \"edges\": [[0, 1]]},"
      " \"params\": [0.25, 0.75]}";
  const std::string request =
      "POST /sweep HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  const std::string response = ReadUntilEof(fd);
  ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  ASSERT_NE(response.find("\"status\":\"OK\""), std::string::npos) << response;

  infer::ItemLabeling labeling(4);
  labeling.AddLabel(0, 0);
  labeling.AddLabel(1, 1);
  labeling.AddLabel(2, 0);
  labeling.AddLabel(3, 1);
  infer::LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);

  const std::size_t at = response.find("\"probabilities\":[");
  ASSERT_NE(at, std::string::npos) << response;
  const char* cursor = response.c_str() + at + 17;
  for (double phi : {0.25, 0.75}) {
    const infer::LabeledRimModel model(
        rim::RimModel(rim::Ranking::Identity(4),
                      rim::InsertionFunction::Mallows(4, phi)),
        labeling);
    char* end = nullptr;
    EXPECT_EQ(std::strtod(cursor, &end), infer::PatternProb(model, pattern))
        << "phi=" << phi;
    cursor = end + 1;  // past the separator
  }
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, HttpHealthzOverSocketpair) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  const std::string response = ReadUntilEof(fd);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("ok\n"), std::string::npos);
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, HttpQueryOverSocketpairBitIdentical) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);

  const std::string body =
      "{\"id\": 5, \"kind\": \"pattern_prob\","
      " \"model\": {\"m\": 4, \"insertion\": {\"phi\": 0.5},"
      "  \"labels\": [[0], [1], [0], [1]]},"
      " \"pattern\": {\"nodes\": [0, 1], \"edges\": [[0, 1]]}}";
  const std::string request =
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  const std::string response = ReadUntilEof(fd);
  ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;

  // Rebuild the same model locally and compare the %.17g-parsed answer
  // bit-for-bit.
  infer::LabeledRimModel model(
      rim::RimModel(rim::Ranking::Identity(4),
                    rim::InsertionFunction::Mallows(4, 0.5)),
      [] {
        infer::ItemLabeling labeling(4);
        labeling.AddLabel(0, 0);
        labeling.AddLabel(1, 1);
        labeling.AddLabel(2, 0);
        labeling.AddLabel(3, 1);
        return labeling;
      }());
  infer::LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);
  const double expected = infer::PatternProb(model, pattern);

  const std::size_t at = response.find("\"probability\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::strtod(response.c_str() + at + 14, nullptr), expected);
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, HttpBadRouteAndBadJson) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());

  int fd = AdoptPair(daemon);
  std::string request = "GET /nope HTTP/1.1\r\n\r\n";
  ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  EXPECT_NE(ReadUntilEof(fd).find("404"), std::string::npos);
  close(fd);

  fd = AdoptPair(daemon);
  request = "POST /query HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{";
  ASSERT_GT(send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  const std::string response = ReadUntilEof(fd);
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_NE(response.find("INVALID_ARGUMENT"), std::string::npos);
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, MetricsExposeNetInstruments) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());

  // Drive one binary request so the counters are non-zero.
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  Client client = Client::FromFd(AdoptPair(daemon));
  WireRequest request(1, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  ASSERT_TRUE(client.Call(request).ok());

  const int fd = AdoptPair(daemon);
  const std::string http = "GET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_GT(send(fd, http.data(), http.size(), MSG_NOSIGNAL), 0);
  const std::string response = ReadUntilEof(fd);
  EXPECT_NE(response.find("ppref_net_requests_binary_total 1"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("ppref_net_connections_adopted_total"),
            std::string::npos);
  EXPECT_NE(response.find("ppref_serve_requests_total"), std::string::npos);
  close(fd);
  daemon.Stop();
}

TEST(NetDaemonTest, KindCountersCountMalformedRequestsOnBothTransports) {
  // A request counts toward its kind once routed there, whatever its body:
  // a sweep frame that fails to decode and a /sweep POST whose JSON fails
  // to parse each raise the sweep counter by exactly one.
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const std::string sweeps = "ppref_net_requests_sweep_total";
  ASSERT_EQ(CounterValue(daemon, sweeps), 0u);

  const int fd = AdoptPair(daemon);
  SendAll(fd, EncodeFrame(FrameType::kSweepRequest, "not-a-sweep"));
  FrameAssembler assembler;
  Frame frame;
  char buffer[4096];
  while (!assembler.Next(&frame)) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(poll(&p, 1, 10000), 0);
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    ASSERT_GT(n, 0);
    ASSERT_TRUE(assembler.Feed(buffer, static_cast<std::size_t>(n)).ok());
  }
  ASSERT_EQ(frame.type, FrameType::kSweepResponse);
  StatusOr<WireSweepResponse> refused = DecodeSweepResponse(frame.body);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CounterValue(daemon, sweeps), 1u);
  close(fd);

  const std::string response = HttpPost(daemon, "/sweep", "{{{");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  EXPECT_EQ(CounterValue(daemon, sweeps), 2u);
  EXPECT_EQ(CounterValue(daemon, "ppref_net_requests_hard_total"), 0u);
  EXPECT_EQ(CounterValue(daemon, "ppref_net_requests_consensus_total"), 0u);
  daemon.Stop();
}

TEST(NetDaemonTest, DrainRefusesEveryRequestKindWithItsOwnResponse) {
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  const int fd = AdoptPair(daemon);

  // Keep the connection open through the drain: a pong larger than the
  // socket buffer cannot flush while this end does not read, so the drain
  // leaves the connection open until its output is delivered.
  const std::string payload(4u << 20, 'p');
  SendAll(fd, EncodeFrame(FrameType::kPing, payload));
  pollfd p{fd, POLLIN, 0};
  ASSERT_GT(poll(&p, 1, 10000), 0) << "pong never started";
  daemon.RequestDrain();

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  const infer::LabeledRimModel& model = workload.models[0];
  const infer::LabelPattern& pattern = workload.patterns[0];
  SendAll(fd, EncodeFrame(FrameType::kRequest,
                          EncodeRequest(WireRequest(
                              71, serve::Request::Kind::kPatternProb, 0,
                              model, pattern))) +
                  EncodeFrame(FrameType::kSweepRequest,
                              EncodeSweepRequest(WireSweepRequest(
                                  72, 0, model, pattern, {{0.5}}))) +
                  EncodeFrame(FrameType::kHardRequest,
                              EncodeHardRequest(WireHardRequest(
                                  73, 0, 0.05, model, pattern))) +
                  EncodeFrame(FrameType::kConsensusRequest,
                              EncodeConsensusRequest(
                                  WireConsensusRequest(74, 0, 2, model))));

  const std::string all = ReadUntilEof(fd);
  close(fd);
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(all.data(), all.size()).ok());
  Frame frame;
  ASSERT_TRUE(assembler.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.body, payload);

  const auto expect_refused = [](std::uint64_t id, const Status& status,
                                 std::uint64_t want_id) {
    EXPECT_EQ(id, want_id);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(status.message(), "daemon draining");
  };
  ASSERT_TRUE(assembler.Next(&frame));
  ASSERT_EQ(frame.type, FrameType::kResponse);
  StatusOr<WireResponse> plain = DecodeResponse(frame.body);
  ASSERT_TRUE(plain.ok());
  expect_refused(plain->id, plain->status, 71);

  ASSERT_TRUE(assembler.Next(&frame));
  ASSERT_EQ(frame.type, FrameType::kSweepResponse);
  StatusOr<WireSweepResponse> sweep = DecodeSweepResponse(frame.body);
  ASSERT_TRUE(sweep.ok());
  expect_refused(sweep->id, sweep->status, 72);

  ASSERT_TRUE(assembler.Next(&frame));
  ASSERT_EQ(frame.type, FrameType::kHardResponse);
  StatusOr<WireHardResponse> hard = DecodeHardResponse(frame.body);
  ASSERT_TRUE(hard.ok());
  expect_refused(hard->id, hard->status, 73);

  ASSERT_TRUE(assembler.Next(&frame));
  ASSERT_EQ(frame.type, FrameType::kConsensusResponse);
  StatusOr<WireConsensusResponse> consensus =
      DecodeConsensusResponse(frame.body);
  ASSERT_TRUE(consensus.ok());
  expect_refused(consensus->id, consensus->status, 74);

  EXPECT_FALSE(assembler.Next(&frame));
  EXPECT_EQ(CounterValue(daemon, "ppref_net_shed_draining_total"), 4u);
  daemon.Join();
}

TEST(NetDaemonTest, BinaryAndHttpAnswersAreBitIdenticalForEveryKind) {
  // Each kind's request is parsed from its JSON body and sent over the
  // binary protocol too; the binary answer, rendered as JSON, must be the
  // HTTP answer byte for byte (JSON spells doubles as %.17g, so byte
  // equality is bit equality).
  Daemon daemon(AdoptOnlyOptions());
  ASSERT_TRUE(daemon.Start().ok());
  Client client = Client::FromFd(AdoptPair(daemon));
  const auto parse = [](const std::string& json) {
    StatusOr<JsonValue> document = ParseJson(json);
    EXPECT_TRUE(document.ok()) << document.status().ToString();
    return *document;
  };

  const std::string query = std::string(kModelJson) + kPatternJson +
                            ", \"kind\": \"top_matching\"}";
  StatusOr<WireRequest> plain = WireRequestFromJson(parse(query));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  StatusOr<WireResponse> plain_answer = client.Call(*plain);
  ASSERT_TRUE(plain_answer.ok()) << plain_answer.status().ToString();
  ASSERT_TRUE(plain_answer->status.ok());
  EXPECT_EQ(HttpBody(HttpPost(daemon, "/query", query)),
            JsonFromWireResponse(*plain_answer));

  const std::string sweep =
      std::string(kModelJson) + kPatternJson + ", \"params\": [0.25, 0.75]}";
  StatusOr<WireSweepRequest> sweep_request =
      SweepRequestFromJson(parse(sweep));
  ASSERT_TRUE(sweep_request.ok()) << sweep_request.status().ToString();
  StatusOr<WireSweepResponse> sweep_answer = client.CallSweep(*sweep_request);
  ASSERT_TRUE(sweep_answer.ok()) << sweep_answer.status().ToString();
  ASSERT_TRUE(sweep_answer->status.ok());
  EXPECT_EQ(HttpBody(HttpPost(daemon, "/sweep", sweep)),
            JsonFromWireSweepResponse(*sweep_answer));

  const std::string hard =
      std::string(kModelJson) + kPatternJson + ", \"target\": 0.05}";
  StatusOr<WireHardRequest> hard_request = HardRequestFromJson(parse(hard));
  ASSERT_TRUE(hard_request.ok()) << hard_request.status().ToString();
  StatusOr<WireHardResponse> hard_answer = client.CallHard(*hard_request);
  ASSERT_TRUE(hard_answer.ok()) << hard_answer.status().ToString();
  ASSERT_TRUE(hard_answer->status.ok());
  EXPECT_EQ(HttpBody(HttpPost(daemon, "/hard", hard)),
            JsonFromWireHardResponse(*hard_answer));

  const std::string consensus = std::string(kModelJson) + ", \"top_k\": 2}";
  StatusOr<WireConsensusRequest> consensus_request =
      ConsensusRequestFromJson(parse(consensus));
  ASSERT_TRUE(consensus_request.ok()) << consensus_request.status().ToString();
  StatusOr<WireConsensusResponse> consensus_answer =
      client.CallConsensus(*consensus_request);
  ASSERT_TRUE(consensus_answer.ok()) << consensus_answer.status().ToString();
  ASSERT_TRUE(consensus_answer->status.ok());
  EXPECT_EQ(HttpBody(HttpPost(daemon, "/consensus", consensus)),
            JsonFromWireConsensusResponse(*consensus_answer));
  daemon.Stop();
}

TEST(NetDaemonTest, BorrowedServerIsShared) {
  // A daemon over a borrowed server shares its caches and instruments with
  // the in-process embedder.
  serve::ServerOptions server_options;
  serve::Server server(server_options);
  DaemonOptions options = AdoptOnlyOptions();
  options.server = &server;
  Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(&daemon.server(), &server);

  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  Client client = Client::FromFd(AdoptPair(daemon));
  WireRequest request(1, serve::Request::Kind::kPatternProb, 0,
                      workload.models[0], workload.patterns[0]);
  ASSERT_TRUE(client.Call(request).ok());
  EXPECT_GE(server.Snapshot().requests, 1u);
  daemon.Stop();
}

}  // namespace
}  // namespace ppref::net
