// Property sweep over the prover configuration space: every valid
// combination of freshness scheme, clock design, MAC algorithm, and
// protection toggles must boot securely and complete a genuine
// attestation round; protected assets must deny malware writes.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "ratt/attest/prover.hpp"
#include "ratt/attest/verifier.hpp"

namespace ratt::attest {
namespace {

using crypto::MacAlgorithm;

crypto::Bytes key() {
  return crypto::from_hex("c0c1c2c3c4c5c6c7c8c9cacbcccdcecf");
}

using MatrixParam =
    std::tuple<FreshnessScheme, ClockDesign, MacAlgorithm, bool /*protect*/>;

class ProverConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

// Every (scheme, clock, MAC, protection) combination a prover can run:
// the timestamp scheme needs a clock, so timestamp + no clock is left out
// rather than generated and skipped.
std::vector<MatrixParam> valid_configurations() {
  std::vector<MatrixParam> out;
  for (const FreshnessScheme scheme :
       {FreshnessScheme::kNone, FreshnessScheme::kNonce,
        FreshnessScheme::kCounter, FreshnessScheme::kTimestamp}) {
    for (const ClockDesign clock :
         {ClockDesign::kNone, ClockDesign::kWritable, ClockDesign::kHw64,
          ClockDesign::kHw32Div, ClockDesign::kSwClock}) {
      if (scheme == FreshnessScheme::kTimestamp &&
          clock == ClockDesign::kNone) {
        continue;
      }
      for (const MacAlgorithm mac :
           {MacAlgorithm::kHmacSha1, MacAlgorithm::kAesCbcMac,
            MacAlgorithm::kSpeckCbcMac}) {
        for (const bool protect : {false, true}) {
          out.emplace_back(scheme, clock, mac, protect);
        }
      }
    }
  }
  return out;
}

TEST_P(ProverConfigMatrix, BootsAndAttests) {
  const auto [scheme, clock, mac_alg, protect] = GetParam();

  ProverConfig config;
  config.scheme = scheme;
  config.clock = clock;
  config.mac_alg = mac_alg;
  config.protect_key = protect;
  config.protect_counter = protect;
  config.protect_clock = protect;
  config.measured_bytes = 512;
  config.timestamp_window_ticks = 100'000'000;  // generous: ~4 s (hw64)
  config.timestamp_skew_ticks = 100'000'000;
  ProverDevice prover(config, key(), crypto::from_string("matrix-app"));
  ASSERT_EQ(prover.boot_status(), hw::BootStatus::kOk);
  EXPECT_TRUE(prover.mcu().mpu().locked());

  Verifier::Config vc;
  vc.scheme = scheme;
  vc.mac_alg = mac_alg;
  vc.clock = [&prover] { return prover.ground_truth_ticks(); };
  Verifier verifier(key(), vc, crypto::from_string("matrix-vrf"));
  verifier.set_reference_memory(prover.reference_memory());

  // Two genuine rounds, spaced beyond any clock resolution in the matrix.
  for (int round = 0; round < 2; ++round) {
    prover.idle_ms(100.0);
    const AttestRequest req = verifier.make_request();
    const AttestOutcome out = prover.handle(req);
    ASSERT_EQ(out.status, AttestStatus::kOk)
        << "round " << round << ": " << to_string(out.freshness);
    EXPECT_TRUE(verifier.check_response(req, out.response));
  }

  // Replay of the last round must be rejected whenever a freshness scheme
  // is active.
  if (scheme != FreshnessScheme::kNone) {
    prover.idle_ms(100.0);  // stay beyond the coarsest clock resolution
    const AttestRequest req = verifier.make_request();
    ASSERT_EQ(prover.handle(req).status, AttestStatus::kOk);
    EXPECT_EQ(prover.handle(req).status, AttestStatus::kNotFresh);
  }

  // Protection sweep: the key read must be denied iff protected.
  hw::SoftwareComponent malware(prover.mcu(), "malware",
                                prover.surface().malware_region);
  std::uint8_t b = 0;
  const hw::BusStatus key_read =
      malware.read8(prover.surface().key_addr, b);
  if (protect) {
    EXPECT_EQ(key_read, hw::BusStatus::kDenied);
  } else {
    EXPECT_EQ(key_read, hw::BusStatus::kOk);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, ProverConfigMatrix,
    ::testing::ValuesIn(valid_configurations()),
    [](const auto& info) {
      // NB: no structured bindings here — their commas would split the
      // INSTANTIATE_TEST_SUITE_P macro arguments.
      const FreshnessScheme scheme = std::get<0>(info.param);
      const ClockDesign clock = std::get<1>(info.param);
      const MacAlgorithm mac = std::get<2>(info.param);
      const bool protect = std::get<3>(info.param);
      std::string name = to_string(scheme) + "_" + to_string(clock) + "_";
      switch (mac) {
        case MacAlgorithm::kHmacSha1:
          name += "hmac";
          break;
        case MacAlgorithm::kAesCbcMac:
          name += "aes";
          break;
        case MacAlgorithm::kSpeckCbcMac:
          name += "speck";
          break;
        case MacAlgorithm::kAesCmac:
          name += "aescmac";
          break;
        case MacAlgorithm::kSpeckCmac:
          name += "speckcmac";
          break;
      }
      name += protect ? "_protected" : "_open";
      // gtest names must be alphanumeric/underscore only.
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ratt::attest
