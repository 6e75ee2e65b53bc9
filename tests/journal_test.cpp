// Tests for the durable event journal (src/journal/): byte-stable codec
// round-trips over seeded record streams, torn-tail vs corruption
// classification with record indices, journal byte-determinism of full
// runs, StateImage folding, and the bounded crash-at-every-event sweep on
// a small fixed scenario (docs/recovery.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "check/spec.hpp"
#include "core/session.hpp"
#include "journal/journal.hpp"
#include "journal/record.hpp"
#include "journal/recovery.hpp"
#include "journal/scribe.hpp"
#include "platform/cluster.hpp"
#include "sim/random.hpp"
#include "util/error.hpp"

namespace flotilla::journal {
namespace {

// Draws a random but valid record of any type — the property tests stream
// these through the codec.
Record random_record(sim::RngStream& rng) {
  const auto pick_name = [&](std::initializer_list<const char*> names) {
    auto it = names.begin();
    std::advance(it, rng.uniform_int(
                         0, static_cast<std::int64_t>(names.size()) - 1));
    return std::string(*it);
  };
  const sim::Time t = rng.uniform(0.0, 1e6);
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return header_record(rng.next_u64(),
                           "seed=" + std::to_string(rng.uniform_int(1, 999)) +
                               ";nodes=4;tasks=16");
    case 1:
      return ready_record(t);
    case 2:
      return transition_record(
          t, "task." + std::to_string(rng.uniform_int(0, 99999)),
          pick_name({"NEW", "TMGR_SCHEDULING", "RUNNING"}),
          pick_name({"RUNNING", "DONE", "FAILED", "CANCELED"}),
          pick_name({"", "srun", "flux", "dragon", "prrte"}),
          rng.uniform_int(0, 5));
    case 3:
      return alloc_record(t, rng.uniform_int(0, 512),
                          rng.uniform_int(-64, 64), rng.uniform_int(-8, 8));
    case 4:
      return fault_record(t, pick_name({"crash", "cancel"}),
                          pick_name({"", "flux", "dragon"}),
                          rng.uniform_int(0, 7), rng.uniform_int(0, 100));
    default:
      return end_record(t, rng.uniform_int(0, 10000),
                        rng.uniform_int(0, 100), rng.uniform_int(0, 100),
                        rng.next_u64() % 1000000);
  }
}

std::string random_journal(std::uint64_t seed, int records) {
  sim::RngStream rng(seed, "journal.test");
  Writer writer;
  for (int i = 0; i < records; ++i) writer.append(random_record(rng));
  return std::string(writer.bytes());
}

// ------------------------------------------------------------------ codec

TEST(Codec, EncodeDecodeEncodeIsByteIdentical) {
  // The round-trip property over seeded random streams: decoding a journal
  // and re-encoding every record reproduces the input bytes exactly.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto bytes = random_journal(seed, 40);
    const auto result = read(bytes);
    ASSERT_TRUE(result.intact()) << "seed " << seed << ": " << result.error;
    ASSERT_FALSE(result.truncated);
    ASSERT_EQ(result.records.size(), 40u);
    std::string reencoded;
    for (const auto& record : result.records) reencoded += record.encode();
    EXPECT_EQ(reencoded, bytes) << "seed " << seed;
  }
}

TEST(Codec, EncodingIsDeterministic) {
  EXPECT_EQ(random_journal(7, 64), random_journal(7, 64));
  EXPECT_NE(random_journal(7, 64), random_journal(8, 64));
}

TEST(Codec, ChecksumCoversEveryByteOfTheBody) {
  // Flipping any single body byte must fail the checksum.
  const auto line = transition_record(1.5, "task.000001", "RUNNING", "DONE",
                                      "flux", 0)
                        .encode();
  for (std::size_t i = 0; i + 12 < line.size(); ++i) {  // spare the checksum
    std::string damaged = line;
    damaged[i] = damaged[i] == 'x' ? 'y' : 'x';
    const auto result = read(damaged);
    EXPECT_TRUE(result.truncated || result.corrupt)
        << "flipped byte " << i << " went undetected";
    EXPECT_TRUE(result.records.empty());
  }
}

TEST(Codec, RejectsFieldSeparatorInValues) {
  EXPECT_THROW(
      transition_record(0.0, "task|0", "NEW", "DONE", "", 0).encode(),
      util::Error);
  EXPECT_THROW(header_record(1, "spec\nwith-newline").encode(), util::Error);
}

TEST(Codec, TimesAreFixedPrecision) {
  // 9 fractional digits, so encode() is stable across platforms and
  // the recovery oracle can compare journals byte-for-byte.
  const auto line = ready_record(1.0 / 3.0).encode();
  EXPECT_NE(line.find("t=0.333333333|"), std::string::npos) << line;
}

TEST(Codec, EncodeToAppendsExactlyEncode) {
  sim::RngStream rng(11, "journal.test");
  std::string buffer = "existing bytes\n";
  std::string expected = buffer;
  for (int i = 0; i < 50; ++i) {
    const Record record = random_record(rng);
    record.encode_to(buffer);
    expected += record.encode();
    ASSERT_EQ(buffer, expected) << "record " << i;
  }
}

// The time text of `t` as encode_to writes it, via a reused line.
std::string_view encoded_time(double t, std::string& line) {
  line.clear();
  ready_record(t).encode_to(line);
  constexpr std::string_view kPrefix = "ready|t=";
  return std::string_view(line).substr(
      kPrefix.size(), line.find("|h=") - kPrefix.size());
}

TEST(Codec, TimesPrintAsPrintfFixedNine) {
  // encode_to must print exactly what %.9f prints, or journals written
  // before and after would differ. Times below 2^33 are printed by integer
  // arithmetic and the rest by std::to_chars; over a million seeded
  // values both must agree with %.9f, rounding ties at the ninth digit
  // (odd multiples of 2^-10) to even like printf does.
  sim::RngStream rng(12, "journal.test");
  const double limit = std::ldexp(1.0, 33);
  std::vector<double> times = {
      0.0,
      -0.0,
      1.0 / 3.0,
      1e-10,
      1e9 + 0.5,
      0.0000000005,
      123456.789,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      limit,
      -limit,
      std::nextafter(limit, 0.0),
      std::nextafter(limit, 2 * limit),
      0.5e-9,
      1.5e-9,
      2.5e-9,
      0.9999999995,
      1e50,
  };
  constexpr int kRounds = 100000;
  for (int i = 0; i < kRounds; ++i) {
    const double sign = rng.bernoulli(0.25) ? -1.0 : 1.0;
    // Ties at the ninth digit, with and without an integer part.
    const auto odd = static_cast<double>(2 * rng.uniform_int(0, 1 << 20) + 1);
    times.push_back(sign * odd / 1024.0);
    times.push_back(sign * (static_cast<double>(rng.uniform_int(0, 1 << 22)) +
                            odd / 1024.0));
    // Other exact binary fractions.
    times.push_back(sign * std::ldexp(static_cast<double>(
                                          rng.uniform_int(1, 1ll << 40)),
                                      -static_cast<int>(rng.uniform_int(
                                          10, 80))));
    // Subnormals: a random mantissa under a zero exponent.
    times.push_back(sign * std::bit_cast<double>(rng.next_u64() >> 12));
    // Both sides of the integer-path limit.
    const double near = limit * rng.uniform(0.999, 1.001);
    times.push_back(sign * near);
    times.push_back(sign * std::nextafter(limit, near));
    // Run-length times, and any magnitude up to 1e50.
    times.push_back(sign * rng.uniform(0.0, 1e6));
    times.push_back(sign * rng.uniform(0.0, 1.0));
    times.push_back(sign * rng.exponential(3600.0));
    times.push_back(sign * std::pow(10.0, rng.uniform(-20.0, 50.0)));
    times.push_back(sign * std::bit_cast<double>(
                               rng.next_u64() % 0x4a00000000000000ull));
  }
  ASSERT_GE(times.size(), 1000000u);
  std::string line;
  std::size_t mismatches = 0;
  for (const double t : times) {
    char printed[512];
    std::snprintf(printed, sizeof printed, "%.9f", t);
    if (encoded_time(t, line) != printed && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << t << ": " << encoded_time(t, line)
                    << " != " << printed;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// The reference parse_time: the nearest double by std::from_chars, kept
// only if %.9f prints it back as exactly `text`.
bool reference_parse_time(const std::string& text, double& out) {
  const char* const last = text.data() + text.size();
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), last, value, std::chars_format::fixed);
  if (ec != std::errc{} || end != last || !std::isfinite(value)) return false;
  char printed[512];
  std::snprintf(printed, sizeof printed, "%.9f", value);
  if (text != printed) return false;
  out = value;
  return true;
}

TEST(Codec, ParseTimeMatchesFromCharsBitForBit) {
  // parse_time reads texts whose digits form an integer N < 2^53 as
  // double(N) / 1e9; that must be the double std::from_chars returns, and
  // every other text must be accepted or refused exactly as before.
  sim::RngStream rng(14, "journal.test");
  const auto text_of = [](std::uint64_t n, bool negative) {
    char text[64];
    std::snprintf(text, sizeof text, "%s%" PRIu64 ".%09" PRIu64,
                  negative ? "-" : "", n / 1000000000u, n % 1000000000u);
    return std::string(text);
  };
  std::vector<std::string> texts = {"0.000000000", "-0.000000000",
                                    "00.000000000", "1.50000000",
                                    "1.5000000000", "-.500000000",
                                    ".500000000", "1.500000000x"};
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 53;
  for (std::uint64_t n = kLimit - 2000; n < kLimit + 2000; ++n) {
    texts.push_back(text_of(n, false));
    texts.push_back(text_of(n, true));
  }
  // Canonical texts of the doubles nearest 2^53 / 1e9, whose digits land
  // on both sides of N = 2^53.
  double t = 0x1p53 / 1e9;
  for (int i = 0; i < 2000; ++i) t = std::nextafter(t, 0.0);
  for (int i = 0; i < 4000; ++i, t = std::nextafter(t, 1e300)) {
    char printed[64];
    std::snprintf(printed, sizeof printed, "%.9f", t);
    texts.emplace_back(printed);
  }
  for (int i = 0; i < 100000; ++i) {
    // 16 to 18 digits, and any shorter N.
    const auto digits = rng.uniform_int(16, 18);
    std::uint64_t n = rng.next_u64() % 1000000000000000000ull;
    for (auto d = digits; d < 18; ++d) n /= 10;
    texts.push_back(text_of(n, rng.bernoulli(0.5)));
    texts.push_back(text_of(rng.next_u64() % kLimit, false));
    char printed[512];
    std::snprintf(printed, sizeof printed, "%.9f",
                  std::pow(10.0, rng.uniform(-10.0, 20.0)));
    texts.emplace_back(printed);
  }
  std::size_t accepted = 0;
  for (const std::string& text : texts) {
    double want = 0.0;
    double got = 0.0;
    const bool ok = reference_parse_time(text, want);
    ASSERT_EQ(parse_time(text, got), ok) << text;
    if (!ok) continue;
    ++accepted;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << text;
  }
  EXPECT_GT(accepted, texts.size() / 4);
  EXPECT_LT(accepted, texts.size());
}

// The line encode_to must write for `r`, built by snprintf.
std::string printf_line(const Record& r) {
  char body[1024];
  switch (r.type) {
    case RecordType::kHeader:
      std::snprintf(body, sizeof body, "journal|v=1|seed=%" PRIu64 "|spec=%s",
                    r.seed, r.spec.c_str());
      break;
    case RecordType::kReady:
      std::snprintf(body, sizeof body, "ready|t=%.9f", r.time);
      break;
    case RecordType::kTransition:
      std::snprintf(body, sizeof body,
                    "task|t=%.9f|uid=%s|from=%s|to=%s|backend=%s"
                    "|attempt=%" PRId64,
                    r.time, r.uid.c_str(), r.from.c_str(), r.to.c_str(),
                    r.backend.c_str(), r.attempt);
      break;
    case RecordType::kAlloc:
      std::snprintf(body, sizeof body,
                    "alloc|t=%.9f|node=%" PRId64 "|cores=%" PRId64
                    "|gpus=%" PRId64,
                    r.time, r.node, r.cores, r.gpus);
      break;
    case RecordType::kFault:
      std::snprintf(body, sizeof body,
                    "fault|t=%.9f|kind=%s|backend=%s|index=%" PRId64
                    "|count=%" PRId64,
                    r.time, r.kind.c_str(), r.backend.c_str(), r.index,
                    r.count);
      break;
    case RecordType::kEnd:
      std::snprintf(body, sizeof body,
                    "end|t=%.9f|done=%" PRId64 "|failed=%" PRId64
                    "|canceled=%" PRId64 "|events=%" PRIu64,
                    r.time, r.done, r.failed, r.canceled, r.events);
      break;
  }
  const std::string marked = std::string(body) + "|h=";
  char sum[16];
  std::snprintf(sum, sizeof sum, "%08x", fnv1a32(marked));
  return marked + sum + "\n";
}

TEST(Codec, EncodeToMatchesAPrintfBuiltLine) {
  sim::RngStream rng(15, "journal.test");
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<Record> records = {
      header_record(std::numeric_limits<std::uint64_t>::max(), ""),
      transition_record(-0.0, "", "", "", "", kMin),
      alloc_record(1e-300, kMin, kMax, -1),
      fault_record(1e40, "crash", "", kMax, kMin),
      end_record(8589934591.999999999, kMin, kMax, 0,
                 std::numeric_limits<std::uint64_t>::max()),
  };
  std::array<int, 6> seen{};
  for (int i = 0; i < 20000; ++i) {
    Record r = random_record(rng);
    if (rng.bernoulli(0.2)) r.time = -r.time;
    ++seen[static_cast<std::size_t>(r.type)];
    records.push_back(std::move(r));
  }
  for (const int count : seen) EXPECT_GT(count, 0);
  std::string line;
  for (const Record& r : records) {
    line.clear();
    r.encode_to(line);
    ASSERT_EQ(line, printf_line(r));
  }
}

TEST(Writer, BytesEqualTheConcatenatedEncodesAcrossReallocations) {
  // About 2 MB of records: the buffer grows many times from empty.
  sim::RngStream rng(16, "journal.test");
  Writer writer;
  EXPECT_TRUE(writer.bytes().empty());
  std::string expected;
  for (int i = 1; i <= 20000; ++i) {
    const Record record = random_record(rng);
    writer.append(record);
    expected += record.encode();
    if (i % 997 == 0 || i < 64) {
      ASSERT_EQ(writer.bytes(), expected) << "after record " << i;
    }
  }
  EXPECT_EQ(writer.bytes(), expected);
  EXPECT_EQ(writer.records(), 20000u);
  EXPECT_GT(expected.size(), std::size_t{1} << 20);
}

TEST(Codec, TimeThatDoesNotFitItsFieldRaises) {
  // %.9f of 1e100 is 111 characters; a silently cut field would decode
  // to another time.
  EXPECT_THROW(ready_record(1e100).encode(), util::Error);
  EXPECT_THROW(ready_record(-1e100).encode(), util::Error);
  EXPECT_THROW(
      ready_record(std::numeric_limits<double>::infinity()).encode(),
      util::Error);
  EXPECT_THROW(
      ready_record(std::numeric_limits<double>::quiet_NaN()).encode(),
      util::Error);
  EXPECT_NO_THROW(ready_record(1e50).encode());
}

TEST(Codec, RaisingRecordLeavesTheWriterUnchanged) {
  // Line atomicity: the writer only ever grows by whole records.
  Writer writer;
  writer.append(header_record(1, "seed=1"));
  writer.append(ready_record(0.5));
  const std::string before = std::string(writer.bytes());
  const std::vector<Record> bad = {
      transition_record(1.0, "task.0", "NEW", "DONE", "flux|x", 0),
      transition_record(1.0, "task.0", "NEW", "DONE\n", "flux", 0),
      fault_record(1.0, "crash", "dragon|0", 0, 1),
      header_record(2, "spec|with-bar"),
      ready_record(1e100),
  };
  for (const Record& record : bad) {
    EXPECT_THROW(writer.append(record), util::Error);
    EXPECT_EQ(writer.bytes(), before);
    EXPECT_EQ(writer.records(), 2u);
  }
  writer.append(end_record(2.0, 1, 0, 0, 9));
  EXPECT_EQ(writer.records(), 3u);
  EXPECT_TRUE(read(writer.bytes()).intact());
}

// ------------------------------------------------- torn tail vs corruption

// A line with a correct checksum over an arbitrary body: what a hand edit
// (or a foreign writer) would produce.
std::string checksummed(const std::string& body) {
  const std::string marked = body + "|h=";
  char sum[16];
  std::snprintf(sum, sizeof sum, "%08x", fnv1a32(marked));
  return marked + sum + "\n";
}

TEST(Reader, RejectsNonCanonicalNumbers) {
  // Each body parses as a number under a lenient reader but re-encodes to
  // other bytes, which would break decode(encode(r)) == r.
  const std::vector<std::string> bodies = {
      "ready|t=1.500000000x",
      "ready|t= 1.5",
      "ready|t=+1.5",
      "ready|t=0x1p3",
      "ready|t=inf",
      "ready|t=nan",
      "ready|t=1.5",
      "ready|t=1.5e0",
      "ready|t=01.500000000",
      "alloc|t=1.000000000|node=01|cores=-4|gpus=0",
      "alloc|t=1.000000000|node=1|cores=-0|gpus=0",
      "alloc|t=1.000000000|node=1|cores=+4|gpus=0",
  };
  const std::string good = ready_record(2.0).encode();
  ASSERT_TRUE(read(checksummed("ready|t=1.500000000")).intact());
  for (const auto& body : bodies) {
    const std::string line = checksummed(body);
    // Not the final line: corruption, with the record's index.
    const auto mid = read(good + line + good);
    EXPECT_TRUE(mid.corrupt) << body;
    EXPECT_EQ(mid.corrupt_index, 1u) << body;
    EXPECT_EQ(mid.records.size(), 1u) << body;
    // The final line, unterminated: a torn tail.
    const auto tail = read(good + line.substr(0, line.size() - 1));
    EXPECT_TRUE(tail.intact()) << body;
    EXPECT_TRUE(tail.truncated) << body;
    EXPECT_EQ(tail.truncated_bytes, line.size() - 1) << body;
    EXPECT_EQ(tail.records.size(), 1u) << body;
    // The final line, terminated: a complete line, so damage as well.
    const auto last = read(good + line);
    EXPECT_TRUE(last.corrupt) << body;
    EXPECT_EQ(last.corrupt_index, 1u) << body;
  }
}

TEST(Reader, RejectsUppercaseChecksumDigits) {
  // The first record whose checksum has a letter digit, with the letters
  // upper-cased: the same value, but not the bytes encode_to writes.
  std::string line;
  for (int i = 0; line.empty(); ++i) {
    const std::string candidate = ready_record(i).encode();
    const std::string_view hex(candidate.data() + candidate.size() - 9, 8);
    if (hex.find_first_of("abcdef") != std::string_view::npos) {
      line = candidate;
    }
  }
  std::transform(line.end() - 9, line.end() - 1, line.end() - 9,
                 [](char c) { return c >= 'a' && c <= 'f' ? c - 32 : c; });
  const auto result = read(line + ready_record(2.0).encode());
  EXPECT_TRUE(result.corrupt) << line;
  EXPECT_EQ(result.corrupt_index, 0u);
}

TEST(Reader, TruncatedTailIsToleratedAndReported) {
  const auto bytes = random_journal(3, 20);
  // Chop at every byte boundary: the reader must return the intact prefix
  // and report the partial tail, never a hard corruption.
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    if (bytes[cut - 1] == '\n') continue;  // clean prefix, nothing torn
    const auto result = read(bytes.substr(0, cut));
    EXPECT_TRUE(result.intact());
    EXPECT_TRUE(result.truncated);
    const auto intact_lines = static_cast<std::size_t>(std::count(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut),
        '\n'));
    EXPECT_EQ(result.records.size(), intact_lines) << "cut at " << cut;
    EXPECT_GT(result.truncated_bytes, 0u);
  }
}

TEST(Reader, CleanPrefixHasNoTruncation) {
  const auto bytes = random_journal(4, 10);
  const auto nl = bytes.find('\n');
  const auto result = read(bytes.substr(0, nl + 1));
  EXPECT_TRUE(result.intact());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.records.size(), 1u);
}

TEST(Reader, MidStreamCorruptionIsAHardErrorWithTheRecordIndex) {
  const auto bytes = random_journal(5, 12);
  // Damage a byte inside the fourth line (index 3) — not the tail.
  std::size_t pos = 0;
  for (int line = 0; line < 3; ++line) pos = bytes.find('\n', pos) + 1;
  std::string damaged = bytes;
  damaged[pos + 1] = damaged[pos + 1] == 'x' ? 'y' : 'x';
  const auto result = read(damaged);
  EXPECT_TRUE(result.corrupt);
  EXPECT_EQ(result.corrupt_index, 3u);
  EXPECT_EQ(result.records.size(), 3u);
  EXPECT_FALSE(result.error.empty());
}

TEST(Reader, DecodableFinalLineWithoutNewlineCountsAsTorn) {
  // The '\n' terminator is part of the durable unit: a record whose bytes
  // all made it to disk except the terminator is still a torn write.
  auto bytes = random_journal(6, 5);
  bytes.pop_back();  // drop the final '\n'
  const auto result = read(bytes);
  EXPECT_TRUE(result.intact());
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.records.size(), 4u);
}

// -------------------------------------------------------- recovery manager

TEST(RecoveryManager, RaisesOnCorruptionWithTheRecordIndex) {
  Writer writer;
  writer.append(header_record(42, "seed=42"));
  writer.append(ready_record(1.0));
  writer.append(end_record(2.0, 1, 0, 0, 10));
  auto bytes = std::string(writer.bytes());
  const auto pos = bytes.find('\n') + 2;  // inside record #1
  bytes[pos] = bytes[pos] == 'x' ? 'y' : 'x';
  try {
    RecoveryManager rm(bytes);
    FAIL() << "corrupt journal accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("#1"), std::string::npos)
        << e.what();
  }
}

TEST(RecoveryManager, RaisesWhenTheFirstRecordIsNotAHeader) {
  Writer writer;
  writer.append(ready_record(1.0));
  EXPECT_THROW(RecoveryManager rm(writer.bytes()), util::Error);
  EXPECT_THROW(RecoveryManager rm(""), util::Error);
}

TEST(RecoveryManager, FoldsThePrefixIntoAStateImage) {
  Writer writer;
  writer.append(header_record(9, "seed=9"));
  writer.append(ready_record(5.0));
  writer.append(alloc_record(5.0, 2, -4, -1));
  writer.append(
      transition_record(5.0, "task.0", "NEW", "TMGR_SCHEDULING", "", 0));
  writer.append(
      transition_record(6.0, "task.0", "RUNNING", "DONE", "flux", 1));
  writer.append(
      transition_record(6.0, "task.1", "NEW", "TMGR_SCHEDULING", "", 0));
  writer.append(fault_record(7.0, "cancel", "", 0, 3));
  writer.append(alloc_record(7.5, 2, 4, 1));

  const RecoveryManager rm(writer.bytes());
  EXPECT_EQ(rm.seed(), 9u);
  EXPECT_EQ(rm.spec_line(), "seed=9");
  EXPECT_FALSE(rm.truncated());
  EXPECT_EQ(rm.prefix().size(), 8u);

  const auto image = rm.image();
  EXPECT_TRUE(image.ready);
  EXPECT_EQ(image.ready_time, 5.0);
  EXPECT_EQ(image.faults, 1u);
  EXPECT_FALSE(image.ended);
  EXPECT_EQ(image.last_time, 7.5);
  ASSERT_EQ(image.tasks.size(), 2u);
  EXPECT_EQ(image.tasks.at("task.0").state, "DONE");
  EXPECT_EQ(image.tasks.at("task.0").backend, "flux");
  EXPECT_EQ(image.tasks.at("task.0").terminal_edges, 1);
  EXPECT_EQ(image.tasks.at("task.1").state, "TMGR_SCHEDULING");
  EXPECT_EQ(image.tasks_in_flight(), 1u);
  // The node 2 allocation was released: net delta zero.
  EXPECT_EQ(image.core_delta.at(2), 0);
  EXPECT_EQ(image.gpu_delta.at(2), 0);
}

// ----------------------------------------------------- validate mode

TEST(Scribe, ValidatesAgainstAPrefixPassedAsATemporary) {
  // The scribe encodes the prefix on construction and keeps no reference
  // to the vector, so a temporary is fine.
  core::Session session(platform::frontier_spec(), 2, 7);
  Scribe scribe(session,
                std::vector<Record>{header_record(7, "seed=7"),
                                    ready_record(0.0)});
  EXPECT_FALSE(scribe.replay_complete());
  scribe.record_header(7, "seed=7");
  scribe.record_ready();
  EXPECT_FALSE(scribe.diverged());
  EXPECT_TRUE(scribe.replay_complete());
  EXPECT_EQ(scribe.cursor(), 2u);
  // Live from here: records keep appending past the prefix.
  scribe.record_end(0, 0, 0, 0);
  EXPECT_EQ(scribe.records(), 3u);
  EXPECT_EQ(scribe.writer().bytes(),
            header_record(7, "seed=7").encode() + ready_record(0.0).encode() +
                end_record(0.0, 0, 0, 0, 0).encode());
}

// ---------------------------------------------- full-run byte determinism

check::ScenarioSpec small_spec() {
  check::ScenarioSpec spec;
  spec.seed = 13;
  spec.nodes = 2;
  spec.backends = {{"srun"}};
  spec.workload = "sleep";
  spec.tasks = 5;
  spec.duration = 2.0;
  return spec;
}

TEST(Journal, SameSeedRunsProduceByteIdenticalJournals) {
  check::RunOptions opts;
  opts.journal = true;
  const auto first = check::run_scenario(small_spec(), opts);
  const auto second = check::run_scenario(small_spec(), opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.journal.empty());
  EXPECT_EQ(first.journal, second.journal);
  // And the journal is structurally sound: header first, end record last.
  const auto parsed = read(first.journal);
  ASSERT_TRUE(parsed.intact());
  EXPECT_FALSE(parsed.truncated);
  EXPECT_EQ(parsed.records.front().type, RecordType::kHeader);
  EXPECT_EQ(parsed.records.back().type, RecordType::kEnd);
  EXPECT_EQ(parsed.records.back().done, 5);
}

TEST(Journal, HeaderStripsTheOracleDimensions) {
  // crash_at/recover describe how the oracle exercises a scenario, not the
  // run itself: every crash point must share one reference journal.
  auto spec = small_spec();
  check::RunOptions opts;
  opts.journal = true;
  const auto reference = check::run_scenario(spec, opts);
  spec.crash_at = 1;  // crash immediately after the header
  auto copts = opts;
  copts.crash_at = spec.crash_at;
  const auto crashed = check::run_scenario(spec, copts);
  ASSERT_TRUE(crashed.crashed);
  const auto ref_header = reference.journal.substr(
      0, reference.journal.find('\n') + 1);
  EXPECT_EQ(crashed.journal, ref_header);
}

TEST(Recovery, DivergenceNamesTheFlippedRecordWithBothFullLines) {
  // A real prefix with one record altered and re-checksummed: it reads as
  // intact, so only the replay can notice. The divergence must carry that
  // record's index, the journaled (altered) line and the re-executed one.
  const auto spec = small_spec();
  check::RunOptions opts;
  opts.journal = true;
  const auto reference = check::run_scenario(spec, opts);
  ASSERT_TRUE(reference.ok());
  auto records = read(reference.journal).records;
  std::size_t flipped = 0;
  for (std::size_t i = records.size() / 2; i < records.size(); ++i) {
    if (records[i].type == RecordType::kTransition) {
      flipped = i;
      break;
    }
  }
  ASSERT_GT(flipped, 0u);
  const std::string original = records[flipped].encode();
  records[flipped].attempt += 7;
  const std::string altered = records[flipped].encode();
  Writer writer;
  for (const auto& record : records) writer.append(record);

  const RecoveryManager rm(writer.bytes());
  auto ropts = opts;
  ropts.recovery = &rm;
  const auto recovered = check::run_scenario(spec, ropts);
  const auto chomp = [](std::string line) {
    line.pop_back();
    return line;
  };
  const auto it = std::find_if(
      recovered.violations.begin(), recovered.violations.end(),
      [](const check::Violation& v) {
        return v.invariant == "recovery-divergence";
      });
  ASSERT_NE(it, recovered.violations.end());
  EXPECT_EQ(it->detail,
            "replay diverged from the journal at record #" +
                std::to_string(flipped) + ": expected [" + chomp(altered) +
                "] got [" + chomp(original) + "]");
}

// ------------------------------------------- crash-at-every-event sweep

TEST(Recovery, CrashAtEveryRecordRecoversToTheUninterruptedRun) {
  // The bounded exhaustive sweep (the CLI twin is flotilla-fuzz
  // --crash-all): one uninterrupted reference, then the full recovery
  // oracle — crash, reload, replay-validate, compare terminal state —
  // at every single record index of the small fixed scenario.
  const auto spec = small_spec();
  check::RunOptions opts;
  opts.journal = true;
  const auto reference = check::run_scenario(spec, opts);
  ASSERT_TRUE(reference.ok());
  const auto records = static_cast<std::uint64_t>(std::count(
      reference.journal.begin(), reference.journal.end(), '\n'));
  ASSERT_GT(records, 10u);
  for (std::uint64_t k = 1; k <= records; ++k) {
    auto crashed = spec;
    crashed.crash_at = k;
    const auto violations = check::check_recovery(crashed, reference);
    EXPECT_TRUE(violations.empty())
        << "crash_at=" << k << ": " << violations.front().to_string();
  }
}

}  // namespace
}  // namespace flotilla::journal
