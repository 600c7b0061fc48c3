/// \file codec_test.cc
/// \brief Body codec: bit-identical round-trips, every structured rejection,
/// and the corruption fuzzers (`NetFuzzTest`) asserting the no-abort
/// contract: hostile bytes never crash, never over-read, always come back
/// `kInvalidArgument`.

#include "ppref/net/codec.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "ppref/common/random.h"
#include "ppref/net/frame.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"
#include "ppref/serve/workload.h"

namespace ppref::net {
namespace {

WireRequest SampleRequest(std::uint64_t id = 77,
                          std::uint64_t deadline_ns = 123456789) {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(3);
  return WireRequest(id, serve::Request::Kind::kTopMatching, deadline_ns,
                     workload.models[1], workload.patterns[1]);
}

TEST(NetCodecTest, RequestRoundTripsBitIdentical) {
  const WireRequest request = SampleRequest();
  StatusOr<WireRequest> decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->kind, request.kind);
  EXPECT_EQ(decoded->deadline_ns, request.deadline_ns);

  const rim::RimModel& a = request.model.model();
  const rim::RimModel& b = decoded->model.model();
  ASSERT_EQ(a.size(), b.size());
  for (unsigned p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a.reference().At(p), b.reference().At(p));
  }
  for (unsigned t = 0; t < a.size(); ++t) {
    const auto& row_a = a.insertion().Row(t);
    const auto& row_b = b.insertion().Row(t);
    ASSERT_EQ(row_a.size(), row_b.size());
    for (std::size_t j = 0; j < row_a.size(); ++j) {
      // Bit identity, not epsilon closeness: the wire carries IEEE-754
      // patterns verbatim.
      std::uint64_t bits_a, bits_b;
      std::memcpy(&bits_a, &row_a[j], 8);
      std::memcpy(&bits_b, &row_b[j], 8);
      EXPECT_EQ(bits_a, bits_b) << "row " << t << " entry " << j;
    }
  }
  for (unsigned item = 0; item < request.model.labeling().item_count();
       ++item) {
    EXPECT_EQ(decoded->model.labeling().LabelsOf(item),
              request.model.labeling().LabelsOf(item));
  }
  ASSERT_EQ(decoded->pattern.NodeCount(), request.pattern.NodeCount());
  for (unsigned node = 0; node < request.pattern.NodeCount(); ++node) {
    EXPECT_EQ(decoded->pattern.NodeLabel(node),
              request.pattern.NodeLabel(node));
    EXPECT_EQ(decoded->pattern.Children(node),
              request.pattern.Children(node));
  }
}

TEST(NetCodecTest, ResponseRoundTripsAllFields) {
  WireResponse response;
  response.id = 0xdeadbeefcafef00dull;
  response.status = Status::DeadlineExceeded("out of time");
  response.probability = 0.12345678901234567;
  response.top_matching = infer::Matching{4, 0, 9};
  response.approximate = true;
  response.std_error = 3.25e-4;
  response.retry_after_ns = 5'000'000;

  StatusOr<WireResponse> decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_EQ(decoded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->status.message(), "out of time");
  EXPECT_EQ(decoded->probability, response.probability);
  ASSERT_TRUE(decoded->top_matching.has_value());
  EXPECT_EQ(*decoded->top_matching, *response.top_matching);
  EXPECT_TRUE(decoded->approximate);
  EXPECT_EQ(decoded->std_error, response.std_error);
  EXPECT_EQ(decoded->retry_after_ns, response.retry_after_ns);
}

TEST(NetCodecTest, ResponseRoundTripsEmptyMatching) {
  WireResponse response;
  response.id = 1;
  response.status = Status::Ok();
  response.probability = 1.0;
  StatusOr<WireResponse> decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->top_matching.has_value());
}

// --- structured rejections -------------------------------------------------

std::string ValidRequestBytes() { return EncodeRequest(SampleRequest()); }

TEST(NetCodecTest, RejectsTruncatedBody) {
  const std::string bytes = ValidRequestBytes();
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{20},
                          bytes.size() - 1}) {
    StatusOr<WireRequest> decoded = DecodeRequest(bytes.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NetCodecTest, RejectsTrailingBytes) {
  StatusOr<WireRequest> decoded = DecodeRequest(ValidRequestBytes() + "!");
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, RejectsBadKind) {
  std::string bytes = ValidRequestBytes();
  bytes[8] = 7;  // kind byte
  EXPECT_EQ(DecodeRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, RejectsNonZeroReserved) {
  std::string bytes = ValidRequestBytes();
  bytes[9] = 1;  // first reserved byte
  EXPECT_EQ(DecodeRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, RejectsNonPermutationReference) {
  std::string bytes = ValidRequestBytes();
  // reference[0] lives right after the u32 item count at offset 20; making
  // it equal reference[1] breaks the permutation.
  std::memcpy(&bytes[24], &bytes[28], 4);
  EXPECT_EQ(DecodeRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, RejectsOversizedItemCount) {
  std::string bytes = ValidRequestBytes();
  const std::uint32_t huge = 0x7fffffff;
  std::memcpy(&bytes[20], &huge, 4);
  EXPECT_EQ(DecodeRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, RejectsBadRowSum) {
  const WireRequest request = SampleRequest();
  std::string bytes = EncodeRequest(request);
  const unsigned m = request.model.model().size();
  // First insertion row (one double) starts after id/kind/deadline (20),
  // the item count (4), and the m reference entries.
  const std::size_t row0 = 24 + 4ull * m;
  const double not_one = 0.25;
  std::memcpy(&bytes[row0], &not_one, 8);
  EXPECT_EQ(DecodeRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, RejectsResponseBadCode) {
  WireResponse response;
  response.id = 1;
  std::string bytes = EncodeResponse(response);
  bytes[8] = 42;  // status code byte
  EXPECT_EQ(DecodeResponse(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

// --- sweep codec -----------------------------------------------------------

WireSweepRequest SampleSweepRequest() {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(3);
  const unsigned m = workload.models[1].model().size();
  std::vector<std::vector<double>> params;
  params.push_back({0.25});
  params.push_back({0.9});
  params.push_back(std::vector<double>(m, 0.5));
  return WireSweepRequest(88, 5'000'000, workload.models[1],
                          workload.patterns[1], std::move(params));
}

TEST(NetCodecTest, SweepRequestRoundTripsBitIdentical) {
  const WireSweepRequest request = SampleSweepRequest();
  StatusOr<WireSweepRequest> decoded =
      DecodeSweepRequest(EncodeSweepRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->deadline_ns, request.deadline_ns);
  EXPECT_EQ(decoded->model.model().size(), request.model.model().size());
  EXPECT_EQ(decoded->pattern.NodeCount(), request.pattern.NodeCount());
  ASSERT_EQ(decoded->params.size(), request.params.size());
  for (std::size_t p = 0; p < request.params.size(); ++p) {
    ASSERT_EQ(decoded->params[p].size(), request.params[p].size());
    for (std::size_t i = 0; i < request.params[p].size(); ++i) {
      std::uint64_t bits_a, bits_b;
      std::memcpy(&bits_a, &request.params[p][i], 8);
      std::memcpy(&bits_b, &decoded->params[p][i], 8);
      EXPECT_EQ(bits_a, bits_b) << "point " << p << " entry " << i;
    }
  }
}

TEST(NetCodecTest, SweepRequestRejectsNonPatternProbKind) {
  std::string bytes = EncodeSweepRequest(SampleSweepRequest());
  // The embedded base request starts at offset 4; its kind byte sits at
  // base offset 8.
  bytes[4 + 8] = static_cast<char>(serve::Request::Kind::kTopMatching);
  EXPECT_EQ(DecodeSweepRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, SweepRequestRejectsBadDispersions) {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  const unsigned m = workload.models[0].model().size();
  for (double phi : {0.0, -0.5, 1.5}) {
    WireSweepRequest request(1, 0, workload.models[0], workload.patterns[0],
                             {{phi}});
    EXPECT_EQ(DecodeSweepRequest(EncodeSweepRequest(request)).status().code(),
              StatusCode::kInvalidArgument)
        << phi;
  }
  // Arity must be 1 (Mallows) or m (generalized Mallows).
  WireSweepRequest bad_arity(1, 0, workload.models[0], workload.patterns[0],
                             {std::vector<double>(m + 1, 0.5)});
  EXPECT_EQ(DecodeSweepRequest(EncodeSweepRequest(bad_arity)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, SweepRequestRejectsOversizedPointCount) {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  WireSweepRequest request(1, 0, workload.models[0], workload.patterns[0], {});
  // With no points the u32 point count is the body's final field.
  std::string bytes = EncodeSweepRequest(request);
  const std::uint32_t huge = kMaxWirePoints + 1;
  std::memcpy(&bytes[bytes.size() - 4], &huge, 4);
  EXPECT_EQ(DecodeSweepRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, SweepResponseRoundTrips) {
  WireSweepResponse response;
  response.id = 0x123456789abcull;
  response.status = Status::ResourceExhausted("shed");
  response.probabilities = {0.1, 0.25, 1.0};
  StatusOr<WireSweepResponse> decoded =
      DecodeSweepResponse(EncodeSweepResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "shed");
  EXPECT_EQ(decoded->probabilities, response.probabilities);
}

// --- hard / consensus codec ------------------------------------------------

WireHardRequest SampleHardRequest() {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(3);
  return WireHardRequest(91, 7'000'000, 0.015, workload.models[1],
                         workload.patterns[1]);
}

WireConsensusRequest SampleConsensusRequest() {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(3);
  return WireConsensusRequest(92, 9'000'000, 3, workload.models[2]);
}

TEST(NetCodecTest, HardRequestRoundTripsBitIdentical) {
  const WireHardRequest request = SampleHardRequest();
  StatusOr<WireHardRequest> decoded =
      DecodeHardRequest(EncodeHardRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->deadline_ns, request.deadline_ns);
  std::uint64_t bits_a, bits_b;
  std::memcpy(&bits_a, &request.target_half_width, 8);
  std::memcpy(&bits_b, &decoded->target_half_width, 8);
  EXPECT_EQ(bits_a, bits_b);
  EXPECT_EQ(decoded->model.model().size(), request.model.model().size());
  EXPECT_EQ(decoded->pattern.NodeCount(), request.pattern.NodeCount());
}

TEST(NetCodecTest, HardRequestRejectsBadTarget) {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  for (double target : {-0.5, 1.5,
                        std::numeric_limits<double>::quiet_NaN()}) {
    WireHardRequest request(1, 0, target, workload.models[0],
                            workload.patterns[0]);
    EXPECT_EQ(DecodeHardRequest(EncodeHardRequest(request)).status().code(),
              StatusCode::kInvalidArgument)
        << target;
  }
  // 0 (server default) and the boundaries are legal.
  for (double target : {0.0, 1.0}) {
    WireHardRequest request(1, 0, target, workload.models[0],
                            workload.patterns[0]);
    EXPECT_TRUE(DecodeHardRequest(EncodeHardRequest(request)).ok()) << target;
  }
}

TEST(NetCodecTest, HardResponseRoundTripsAllFields) {
  WireHardResponse response;
  response.id = 0xfeedf00dull;
  response.status = Status::ResourceExhausted("shed");
  response.estimate = 0.12345678901234567;
  response.std_error = 2.5e-3;
  response.n_samples = 123456;
  response.target_met = true;
  response.deadline_limited = true;
  StatusOr<WireHardResponse> decoded =
      DecodeHardResponse(EncodeHardResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "shed");
  EXPECT_EQ(decoded->estimate, response.estimate);
  EXPECT_EQ(decoded->std_error, response.std_error);
  EXPECT_EQ(decoded->n_samples, response.n_samples);
  EXPECT_TRUE(decoded->target_met);
  EXPECT_TRUE(decoded->deadline_limited);
}

TEST(NetCodecTest, ConsensusRequestRoundTripsBitIdentical) {
  const WireConsensusRequest request = SampleConsensusRequest();
  StatusOr<WireConsensusRequest> decoded =
      DecodeConsensusRequest(EncodeConsensusRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->deadline_ns, request.deadline_ns);
  EXPECT_EQ(decoded->top_k, request.top_k);
  EXPECT_EQ(decoded->model.model().size(), request.model.model().size());
}

TEST(NetCodecTest, ConsensusRequestRejectsZeroTopK) {
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  const WireConsensusRequest request(1, 0, 0, workload.models[0]);
  EXPECT_EQ(
      DecodeConsensusRequest(EncodeConsensusRequest(request)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, ConsensusRequestRejectsNonEmptyBasePattern) {
  // The wire form embeds a standard request with an *empty* pattern; a
  // non-empty one means the bytes were not produced by the consensus
  // encoder, so the decoder must refuse rather than silently ignore it.
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(1);
  WireRequest base(1, serve::Request::Kind::kPatternProb, 0,
                   workload.models[0], workload.patterns[0]);
  const std::string base_bytes = EncodeRequest(base);
  std::string bytes;
  const std::uint32_t base_len = static_cast<std::uint32_t>(base_bytes.size());
  bytes.append(reinterpret_cast<const char*>(&base_len), 4);
  bytes += base_bytes;
  const std::uint32_t top_k = 2;
  bytes.append(reinterpret_cast<const char*>(&top_k), 4);
  EXPECT_EQ(DecodeConsensusRequest(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCodecTest, ConsensusResponseRoundTripsAllFields) {
  WireConsensusResponse response;
  response.id = 0xabcdefull;
  response.status = Status::Ok();
  response.ranking = {4, 0, 2};
  response.mean_footrule = 3.5;
  response.footrule_std_error = 0.125;
  response.mean_kendall = 2.25;
  response.kendall_std_error = 0.0625;
  response.n_samples = 4096;
  StatusOr<WireConsensusResponse> decoded =
      DecodeConsensusResponse(EncodeConsensusResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->ranking, response.ranking);
  EXPECT_EQ(decoded->mean_footrule, response.mean_footrule);
  EXPECT_EQ(decoded->footrule_std_error, response.footrule_std_error);
  EXPECT_EQ(decoded->mean_kendall, response.mean_kendall);
  EXPECT_EQ(decoded->kendall_std_error, response.kendall_std_error);
  EXPECT_EQ(decoded->n_samples, response.n_samples);
}

// --- golden bytes ----------------------------------------------------------
//
// The hex literals were captured from the byte-at-a-time encoder that
// preceded the bulk codec. Round-trip tests alone would pass if the encoder
// and decoder drifted together; these pin the wire format itself, so any
// drift fails here and must come with a kWireVersion bump.

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xF]);
  }
  return out;
}

/// The golden tests' 3-item model: reference (2, 0, 1), rows 1 |
/// 0.25 0.75 | 0.5 0.25 0.25, labels {7}, {8, 9}, {}.
infer::LabeledRimModel GoldenModel() {
  infer::ItemLabeling labeling(3);
  labeling.AddLabel(0, 7);
  labeling.AddLabel(1, 8);
  labeling.AddLabel(1, 9);
  return infer::LabeledRimModel(
      rim::RimModel(
          rim::Ranking({2, 0, 1}),
          rim::InsertionFunction({{1.0}, {0.25, 0.75}, {0.5, 0.25, 0.25}})),
      std::move(labeling));
}

/// The golden tests' pattern: 2 nodes (7, 9), 1 edge 0 -> 1.
infer::LabelPattern GoldenPattern() {
  infer::LabelPattern pattern;
  pattern.AddNode(7);
  pattern.AddNode(9);
  pattern.AddEdge(0, 1);
  return pattern;
}

TEST(NetCodecGoldenTest, RequestBytesAreFixed) {
  WireRequest request(0x0102030405060708ull,
                      serve::Request::Kind::kTopMatching, 123456789,
                      GoldenModel(), GoldenPattern());
  request.idempotency_key = 0xA1B2C3D4E5F60718ull;

  EXPECT_EQ(Hex(EncodeRequest(request)),
            // preamble: id, kind, flags, reserved, deadline, idempotency key
            "0807060504030201" "01" "01" "0000" "15cd5b0700000000"
            "1807f6e5d4c3b2a1"
            // m, reference order
            "03000000" "020000000000000001000000"
            // insertion rows 1 | 0.25 0.75 | 0.5 0.25 0.25
            "000000000000f03f"
            "000000000000d03f" "000000000000e83f"
            "000000000000e03f" "000000000000d03f" "000000000000d03f"
            // labels: {7}, {8, 9}, {}
            "01000000" "07000000"
            "02000000" "08000000" "09000000"
            "00000000"
            // pattern: 2 nodes (7, 9), 1 edge 0 -> 1
            "02000000" "07000000" "09000000"
            "01000000" "00000000" "01000000");
}

// The wrapped requests: a u32 length, then the base request body exactly as
// EncodeRequest writes it (kind pattern_prob, no idempotency key), then the
// kind's own tail.

/// Base preamble (id, kind, flags, reserved, deadline) and GoldenModel().
const std::string kGoldenBaseHex =
    "0807060504030201" "00" "00" "0000" "15cd5b0700000000"
    // m, reference order
    "03000000" "020000000000000001000000"
    // insertion rows 1 | 0.25 0.75 | 0.5 0.25 0.25
    "000000000000f03f"
    "000000000000d03f" "000000000000e83f"
    "000000000000e03f" "000000000000d03f" "000000000000d03f"
    // labels: {7}, {8, 9}, {}
    "01000000" "07000000"
    "02000000" "08000000" "09000000"
    "00000000";

/// GoldenPattern(): 2 nodes (7, 9), 1 edge 0 -> 1.
const std::string kGoldenPatternHex =
    "02000000" "07000000" "09000000"
    "01000000" "00000000" "01000000";

TEST(NetCodecGoldenTest, SweepRequestBytesAreFixed) {
  const WireSweepRequest request(0x0102030405060708ull, 123456789,
                                 GoldenModel(), GoldenPattern(),
                                 {{0.5}, {0.25, 0.5, 1.0}});
  EXPECT_EQ(Hex(EncodeSweepRequest(request)),
            "84000000" + kGoldenBaseHex + kGoldenPatternHex +
                // 2 points: {0.5}, {0.25, 0.5, 1}
                "02000000"
                "01000000" "000000000000e03f"
                "03000000" "000000000000d03f" "000000000000e03f"
                "000000000000f03f");
}

TEST(NetCodecGoldenTest, HardRequestBytesAreFixed) {
  const WireHardRequest request(0x0102030405060708ull, 123456789, 0.125,
                                GoldenModel(), GoldenPattern());
  EXPECT_EQ(Hex(EncodeHardRequest(request)),
            "84000000" + kGoldenBaseHex + kGoldenPatternHex +
                // target_half_width 0.125
                "000000000000c03f");
}

TEST(NetCodecGoldenTest, ConsensusRequestBytesAreFixed) {
  const WireConsensusRequest request(0x0102030405060708ull, 123456789, 2,
                                     GoldenModel());
  EXPECT_EQ(Hex(EncodeConsensusRequest(request)),
            "74000000" + kGoldenBaseHex +
                // empty pattern: 0 nodes, 0 edges; then top_k 2
                "00000000" "00000000" "02000000");
}

TEST(NetCodecGoldenTest, ResponseBytesAreFixed) {
  WireResponse response;
  response.id = 0x1122334455667788ull;
  response.status = Status::DeadlineExceeded("late");
  response.probability = 0.375;
  response.std_error = 0.125;
  response.approximate = true;
  response.retry_after_ns = 5000000;
  response.top_matching = infer::Matching{2, 0};

  EXPECT_EQ(Hex(EncodeResponse(response)),
            // id, code, approximate, has_top_matching, reserved
            "8877665544332211" "02" "01" "01" "00"
            // message "late"
            "04000000" "6c617465"
            // probability, std_error, retry_after_ns
            "000000000000d83f" "000000000000c03f" "404b4c0000000000"
            // top matching {2, 0}
            "02000000" "02000000" "00000000");
}

// --- fuzzers ---------------------------------------------------------------

TEST(NetFuzzTest, RequestDecoderSurvivesTruncationEverywhere) {
  const std::string bytes = ValidRequestBytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    StatusOr<WireRequest> decoded = DecodeRequest(bytes.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NetFuzzTest, RequestDecoderSurvivesRandomCorruption) {
  // Seeded corruption sweep: flip/overwrite a few bytes of a valid body and
  // decode. The decoder must never abort or over-read; it either rejects
  // with kInvalidArgument or (when the mutation only touched payload
  // doubles/labels) accepts.
  const std::string pristine = ValidRequestBytes();
  Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = pristine;
    const std::size_t mutations = 1 + rng.NextIndex(4);
    for (std::size_t k = 0; k < mutations; ++k) {
      bytes[rng.NextIndex(bytes.size())] =
          static_cast<char>(rng.NextIndex(256));
    }
    StatusOr<WireRequest> decoded = DecodeRequest(bytes);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetFuzzTest, RequestDecoderSurvivesGarbage) {
  Rng rng(7);
  for (int round = 0; round < 500; ++round) {
    std::string bytes(rng.NextIndex(200), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextIndex(256));
    StatusOr<WireRequest> decoded = DecodeRequest(bytes);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetFuzzTest, SweepDecoderSurvivesTruncationEverywhere) {
  const std::string bytes = EncodeSweepRequest(SampleSweepRequest());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    StatusOr<WireSweepRequest> decoded =
        DecodeSweepRequest(bytes.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NetFuzzTest, SweepDecoderSurvivesRandomCorruption) {
  const std::string pristine = EncodeSweepRequest(SampleSweepRequest());
  Rng rng(4242);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = pristine;
    const std::size_t mutations = 1 + rng.NextIndex(4);
    for (std::size_t k = 0; k < mutations; ++k) {
      bytes[rng.NextIndex(bytes.size())] =
          static_cast<char>(rng.NextIndex(256));
    }
    StatusOr<WireSweepRequest> decoded = DecodeSweepRequest(bytes);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetFuzzTest, HardDecoderSurvivesTruncationAndCorruption) {
  const std::string pristine = EncodeHardRequest(SampleHardRequest());
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    StatusOr<WireHardRequest> decoded =
        DecodeHardRequest(pristine.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  Rng rng(1717);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = pristine;
    const std::size_t mutations = 1 + rng.NextIndex(4);
    for (std::size_t k = 0; k < mutations; ++k) {
      bytes[rng.NextIndex(bytes.size())] =
          static_cast<char>(rng.NextIndex(256));
    }
    StatusOr<WireHardRequest> decoded = DecodeHardRequest(bytes);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetFuzzTest, ConsensusDecoderSurvivesTruncationAndCorruption) {
  const std::string pristine =
      EncodeConsensusRequest(SampleConsensusRequest());
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    StatusOr<WireConsensusRequest> decoded =
        DecodeConsensusRequest(pristine.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  Rng rng(1919);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = pristine;
    const std::size_t mutations = 1 + rng.NextIndex(4);
    for (std::size_t k = 0; k < mutations; ++k) {
      bytes[rng.NextIndex(bytes.size())] =
          static_cast<char>(rng.NextIndex(256));
    }
    StatusOr<WireConsensusRequest> decoded = DecodeConsensusRequest(bytes);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetFuzzTest, ResponseDecoderSurvivesCorruption) {
  WireResponse response;
  response.id = 5;
  response.status = Status::Ok();
  response.probability = 0.5;
  response.top_matching = infer::Matching{1, 2, 3};
  const std::string pristine = EncodeResponse(response);
  Rng rng(99);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = pristine;
    bytes[rng.NextIndex(bytes.size())] =
        static_cast<char>(rng.NextIndex(256));
    if (rng.NextUnit() < 0.5) {
      bytes.resize(rng.NextIndex(bytes.size() + 1));
    }
    StatusOr<WireResponse> decoded = DecodeResponse(bytes);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetFuzzTest, AssemblerSurvivesInterleavedGarbageWrites) {
  // Random split points + random corruption against the frame layer. The
  // assembler must always either produce frames or go sticky-invalid; it
  // must never hand out a frame from a corrupt stream prefix.
  Rng rng(13);
  for (int round = 0; round < 300; ++round) {
    std::string stream;
    const int frames = 1 + static_cast<int>(rng.NextIndex(4));
    for (int f = 0; f < frames; ++f) {
      std::string body(rng.NextIndex(64), 'b');
      stream += EncodeFrame(
          rng.NextUnit() < 0.5 ? FrameType::kRequest : FrameType::kPing,
          body);
    }
    const bool corrupt = rng.NextUnit() < 0.5;
    if (corrupt) {
      stream[rng.NextIndex(std::min<std::size_t>(stream.size(),
                                                 kFrameHeaderBytes))] =
          static_cast<char>(rng.NextIndex(256));
    }
    FrameAssembler assembler;
    std::size_t offset = 0;
    bool failed = false;
    while (offset < stream.size()) {
      const std::size_t chunk =
          1 + rng.NextIndex(std::min<std::size_t>(stream.size() - offset, 17));
      if (!assembler.Feed(stream.data() + offset, chunk).ok()) {
        failed = true;
        break;
      }
      offset += chunk;
      Frame frame;
      while (assembler.Next(&frame)) {
      }
    }
    if (failed) {
      ASSERT_EQ(assembler.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace ppref::net
