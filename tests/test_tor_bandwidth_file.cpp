#include "tor/bandwidth_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "net/units.h"
#include "sim/random.h"

namespace flashflow::tor {
namespace {

// The ostringstream + snprintf("%.3f") writer serialize_bandwidth_file
// replaced, kept as the oracle its bytes must match.
std::string reference_serialize(const BandwidthFileHeader& header,
                                const BandwidthFile& entries) {
  std::ostringstream out;
  out << header.timestamp << "\n";
  out << "version=" << header.version << "\n";
  out << "software=" << header.software << "\n";
  out << "software_version=" << header.software_version << "\n";
  out << "=====\n";
  for (const auto& e : entries) {
    const auto bw_kb = static_cast<long long>(
        std::max(1.0, std::round(e.weight / 8000.0)));
    out << "node_id=$" << e.fingerprint << " bw=" << bw_kb;
    if (e.capacity_bits > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", net::to_mbit(e.capacity_bits));
      out << " flashflow_capacity_mbits=" << buf;
    }
    out << "\n";
  }
  return out.str();
}

BandwidthFile sample_entries() {
  return {{"AAAA", net::mbit(80), net::mbit(100)},
          {"BBBB", net::mbit(8), 0.0}};
}

TEST(BandwidthFileFormat, RoundTrip) {
  BandwidthFileHeader header;
  header.timestamp = 1234567890;
  const auto text = serialize_bandwidth_file(header, sample_entries());
  const auto parsed = parse_bandwidth_file(text);
  EXPECT_EQ(parsed.header.timestamp, 1234567890);
  EXPECT_EQ(parsed.header.software, "flashflow");
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].fingerprint, "AAAA");
  // bw= is rounded to KB/s: 80 Mbit/s = 10000 KB/s.
  EXPECT_NEAR(parsed.entries[0].weight, net::mbit(80), 8000.0);
  EXPECT_NEAR(parsed.entries[0].capacity_bits, net::mbit(100),
              net::mbit(0.01));
  EXPECT_DOUBLE_EQ(parsed.entries[1].capacity_bits, 0.0);
}

TEST(BandwidthFileFormat, SerializedShape) {
  BandwidthFileHeader header;
  header.timestamp = 42;
  const auto text = serialize_bandwidth_file(header, sample_entries());
  EXPECT_EQ(text.find("42\n"), 0u);
  EXPECT_NE(text.find("version=1.4.0"), std::string::npos);
  EXPECT_NE(text.find("=====\n"), std::string::npos);
  EXPECT_NE(text.find("node_id=$AAAA bw=10000"), std::string::npos);
  EXPECT_NE(text.find("flashflow_capacity_mbits=100.000"),
            std::string::npos);
}

TEST(BandwidthFileFormat, TinyWeightsGetFloorOfOne) {
  BandwidthFileHeader header;
  const BandwidthFile entries = {{"CCCC", 10.0, 0.0}};  // ~0 KB/s
  const auto parsed =
      parse_bandwidth_file(serialize_bandwidth_file(header, entries));
  EXPECT_GE(parsed.entries[0].weight, 8000.0);  // bw=1
}

TEST(BandwidthFileFormat, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_bandwidth_file(""), std::invalid_argument);
  EXPECT_THROW(parse_bandwidth_file("not-a-timestamp\n=====\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_bandwidth_file("42\nversion=1.4.0\n"),  // no =====
               std::invalid_argument);
  EXPECT_THROW(
      parse_bandwidth_file("42\n=====\nnode_id=$AAAA\n"),  // missing bw
      std::invalid_argument);
  EXPECT_THROW(
      parse_bandwidth_file("42\n=====\nbw=10\n"),  // missing node_id
      std::invalid_argument);
  EXPECT_THROW(
      parse_bandwidth_file("42\n=====\nnode_id=$A bw=-5\n"),
      std::invalid_argument);
}

TEST(BandwidthFileFormat, RejectsTrailingGarbageInNumbers) {
  // Regression: the stoll/stod-era parser accepted "123abc" as timestamp
  // 123 and "bw=12junk" as a 12 KB/s relay — corruption silently
  // truncated into plausible values. The strict parser must reject the
  // whole token and name what it was parsing.
  try {
    parse_bandwidth_file("123abc\n=====\nnode_id=$A bw=10\n");
    FAIL() << "trailing garbage in timestamp accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timestamp"), std::string::npos) << what;
    EXPECT_NE(what.find("123abc"), std::string::npos) << what;
  }
  try {
    parse_bandwidth_file("42\n=====\nnode_id=$A bw=12junk\n");
    FAIL() << "trailing garbage in bw accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bw"), std::string::npos) << what;
    EXPECT_NE(what.find("12junk"), std::string::npos) << what;
  }
  EXPECT_THROW(
      parse_bandwidth_file(
          "42\n=====\nnode_id=$A bw=10 flashflow_capacity_mbits=1.5x\n"),
      std::invalid_argument);
  // Overflow reports the offending value instead of a bare
  // std::out_of_range from stoll.
  EXPECT_THROW(parse_bandwidth_file("99999999999999999999999\n=====\n"
                                    "node_id=$A bw=10\n"),
               std::invalid_argument);
}

TEST(BandwidthFileFormat, IgnoresUnknownKeys) {
  const auto parsed = parse_bandwidth_file(
      "42\nversion=9.9\nfuture_header=yes\n=====\n"
      "node_id=$AAAA bw=100 nick=foo unmeasured=0\n");
  EXPECT_EQ(parsed.header.version, "9.9");
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].fingerprint, "AAAA");
}

TEST(BandwidthFileFormat, MatchesStreamAndSnprintfWriterByteForByte) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sim::Rng rng(20240611);
  BandwidthFileHeader header;
  header.timestamp = -1234567890123LL;
  BandwidthFile entries;
  for (int i = 0; i < 20000; ++i) {
    BandwidthFileEntry e;
    e.fingerprint = "FP" + std::to_string(i);
    e.weight = std::pow(10.0, rng.uniform(-2.0, 15.0));
    switch (i % 5) {
      case 0:  // log-uniform capacities, sub-bit to 10 Tbit/s
        e.capacity_bits = std::pow(10.0, rng.uniform(-4.0, 13.0));
        break;
      case 1:  // exact "%.3f" ties: k/16 Mbit/s, divided exactly by 1e6
        e.capacity_bits = static_cast<double>(rng.uniform_int(1, 1 << 24)) *
                          62500.0;
        break;
      case 2:  // typical relay capacities
        e.capacity_bits = rng.uniform(1e5, 1e10);
        break;
      case 3:  // omitted: non-positive capacities and NaN
        e.capacity_bits = i % 3 == 0   ? 0.0
                          : i % 3 == 1 ? -5e6
                                       : std::nan("");
        break;
      default:  // extremes
        e.capacity_bits = i % 2 == 0 ? kInf : 1e22;
        break;
    }
    entries.push_back(e);
  }
  EXPECT_EQ(serialize_bandwidth_file(header, entries),
            reference_serialize(header, entries));
  EXPECT_EQ(serialize_bandwidth_file(BandwidthFileHeader{}, {}),
            reference_serialize(BandwidthFileHeader{}, {}));
}

}  // namespace
}  // namespace flashflow::tor
