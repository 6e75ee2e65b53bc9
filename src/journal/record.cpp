#include "journal/record.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace flotilla::journal {

namespace {

// Room for a time's text. Journal times are virtual seconds; one whose
// fixed form needs more (a magnitude past ~1e54) is refused rather than
// cut short.
using TimeBuffer = std::array<char, 64>;

// Times below this magnitude are printed by exact integer arithmetic; the
// rest (and non-finite values) go through std::to_chars.
constexpr double kIntegerTimeLimit = 0x1p33;

using Uint128 = unsigned __int128;

// Fixed notation with 9 fractional digits is the journal's canonical time
// form: it prints exactly what printf's %.9f prints, the precision keeps
// the bytes stable across runs, and re-encoding a decoded record
// reproduces the same text (decimal -> nearest double -> same decimal).
// Empty if `t` is not finite or its text does not fit.
//
// For |t| < 2^33, t = m * 2^-s with a 53-bit mantissa m and s >= 20, so
// |t| * 10^9 = m * 10^9 / 2^s with m * 10^9 < 2^83: one 128-bit product,
// a shift rounded half to even (as %.9f rounds an exact binary value),
// and the result, below 2^63, splits into the integer part and nine
// fractional digits. Larger magnitudes keep std::to_chars(fixed, 9).
std::string_view format_time(sim::Time t, TimeBuffer& buf) {
  if (!(std::fabs(t) < kIntegerTimeLimit)) {
    if (!std::isfinite(t)) return {};
    const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                         t, std::chars_format::fixed, 9);
    if (ec != std::errc{}) return {};
    return {buf.data(), static_cast<std::size_t>(end - buf.data())};
  }
  const auto bits = std::bit_cast<std::uint64_t>(t);
  const int biased = static_cast<int>((bits >> 52) & 0x7ffu);
  constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
  const std::uint64_t mantissa =
      (bits & (kHidden - 1)) | (biased != 0 ? kHidden : 0);
  const int shift = 1075 - std::max(biased, 1);  // subnormals: 1074
  std::uint64_t nanos = 0;
  if (shift < 128) {
    const Uint128 scaled = static_cast<Uint128>(mantissa) * 1000000000u;
    nanos = static_cast<std::uint64_t>(scaled >> shift);
    const Uint128 rest = scaled & ((Uint128{1} << shift) - 1);
    const Uint128 half = Uint128{1} << (shift - 1);
    if (rest > half || (rest == half && (nanos & 1u) != 0)) ++nanos;
  }
  char* p = buf.data();
  if (std::signbit(t)) *p++ = '-';
  p = std::to_chars(p, buf.data() + buf.size(), nanos / 1000000000u).ptr;
  *p++ = '.';
  std::uint64_t fraction = nanos % 1000000000u;
  for (int i = 9; i-- > 0; fraction /= 10) {
    p[i] = static_cast<char>('0' + fraction % 10);
  }
  return {buf.data(), static_cast<std::size_t>(p + 9 - buf.data())};
}

// The value of a time text "[-]D.DDDDDDDDD" whose 10-18 digits form an
// integer N < 2^53: N and 10^9 are exact doubles and IEEE division rounds
// correctly, so double(N) / 1e9 is the nearest double to the decimal,
// exactly what std::from_chars returns. False for any other text.
bool exact_time_value(std::string_view text, double& value) {
  const bool negative = !text.empty() && text.front() == '-';
  const std::string_view digits = text.substr(negative ? 1 : 0);
  if (digits.size() < 11 || digits.size() > 19) return false;
  const std::size_t point = digits.size() - 10;
  if (digits[point] != '.') return false;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i == point) continue;
    const char c = digits[i];
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (n >= (std::uint64_t{1} << 53)) return false;
  value = static_cast<double>(n) / 1e9;
  if (negative) value = -value;
  return true;
}

// One line, assembled in two passes: every field is checked and formatted
// into the pieces first, then the output grows once and the pieces are
// copied, so a field that raises leaves the output untouched.
class Line {
 public:
  void piece(std::string_view text) {
    pieces_[count_++] = text;
    size_ += text.size();
  }

  // `key` is the field's "|name=" prefix.
  void text_field(std::string_view key, std::string_view value) {
    for (const char c : value) {
      if (c == '|' || c == '\n') {
        util::raise("journal: field '", key.substr(1, key.size() - 2),
                    "' contains a record delimiter: ", value);
      }
    }
    piece(key);
    piece(value);
  }

  template <typename Int>
  void int_field(std::string_view key, Int value) {
    auto& buf = ints_[ints_used_++];
    const char* const end =
        std::to_chars(buf.data(), buf.data() + buf.size(), value).ptr;
    piece(key);
    piece({buf.data(), static_cast<std::size_t>(end - buf.data())});
  }

  void time_field(sim::Time t) {
    const std::string_view value = format_time(t, time_);
    if (value.empty()) {
      util::raise("journal: time ", t, " is not finite or does not fit a ",
                  time_.size(), "-byte field");
    }
    piece("|t=");
    piece(value);
  }

  // Appends the pieces, the "|h=" checksum field and the '\n'.
  void append_to(std::string& out) const {
    constexpr std::string_view kMarker = "|h=";
    const std::size_t start = out.size();
    out.resize(start + size_ + kMarker.size() + 9);
    char* p = out.data() + start;
    for (std::size_t i = 0; i < count_; ++i) {
      std::memcpy(p, pieces_[i].data(), pieces_[i].size());
      p += pieces_[i].size();
    }
    std::memcpy(p, kMarker.data(), kMarker.size());
    p += kMarker.size();
    // Eight lowercase hex digits, as %08x.
    constexpr std::string_view kDigits = "0123456789abcdef";
    std::uint32_t sum = fnv1a32({out.data() + start, size_ + kMarker.size()});
    for (int i = 8; i-- > 0; sum >>= 4) p[i] = kDigits[sum & 0xfu];
    p[8] = '\n';
  }

 private:
  // A transition, the widest record, has 13 pieces (the tag, then a key
  // and a value per field); an end record has 4 integers.
  std::array<std::string_view, 13> pieces_;
  std::size_t count_ = 0;
  std::size_t size_ = 0;
  std::array<std::array<char, 24>, 4> ints_;  // 20 digits and a sign at most
  std::size_t ints_used_ = 0;
  TimeBuffer time_;
};

// The tag and the type's fields, in canonical order.
void put_fields(const Record& r, Line& line) {
  line.piece(to_string(r.type));
  switch (r.type) {
    case RecordType::kHeader:
      line.int_field("|v=", 1);
      line.int_field("|seed=", r.seed);
      line.text_field("|spec=", r.spec);
      break;
    case RecordType::kReady:
      line.time_field(r.time);
      break;
    case RecordType::kTransition:
      line.time_field(r.time);
      line.text_field("|uid=", r.uid);
      line.text_field("|from=", r.from);
      line.text_field("|to=", r.to);
      line.text_field("|backend=", r.backend);
      line.int_field("|attempt=", r.attempt);
      break;
    case RecordType::kAlloc:
      line.time_field(r.time);
      line.int_field("|node=", r.node);
      line.int_field("|cores=", r.cores);
      line.int_field("|gpus=", r.gpus);
      break;
    case RecordType::kFault:
      line.time_field(r.time);
      line.text_field("|kind=", r.kind);
      line.text_field("|backend=", r.backend);
      line.int_field("|index=", r.index);
      line.int_field("|count=", r.count);
      break;
    case RecordType::kEnd:
      line.time_field(r.time);
      line.int_field("|done=", r.done);
      line.int_field("|failed=", r.failed);
      line.int_field("|canceled=", r.canceled);
      line.int_field("|events=", r.events);
      break;
  }
}

}  // namespace

std::string_view to_string(RecordType type) {
  switch (type) {
    case RecordType::kHeader:
      return "journal";
    case RecordType::kReady:
      return "ready";
    case RecordType::kTransition:
      return "task";
    case RecordType::kAlloc:
      return "alloc";
    case RecordType::kFault:
      return "fault";
    case RecordType::kEnd:
      return "end";
  }
  return "?";
}

std::uint32_t fnv1a32(std::string_view text) {
  std::uint32_t h = 2166136261u;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

void Record::encode_to(std::string& out) const {
  Line line;
  put_fields(*this, line);
  line.append_to(out);
}

std::string Record::encode() const {
  std::string line;
  encode_to(line);
  return line;
}

bool parse_time(std::string_view text, sim::Time& out) {
  double value = 0.0;
  if (!exact_time_value(text, value)) {
    const char* const last = text.data() + text.size();
    const auto [end, ec] =
        std::from_chars(text.data(), last, value, std::chars_format::fixed);
    if (ec != std::errc{} || end != last) return false;
  }
  TimeBuffer buf;
  if (format_time(value, buf) != text) return false;  // also refuses inf/nan
  out = value;
  return true;
}

Record header_record(std::uint64_t seed, std::string spec) {
  Record r;
  r.type = RecordType::kHeader;
  r.seed = seed;
  r.spec = std::move(spec);
  return r;
}

Record ready_record(sim::Time time) {
  Record r;
  r.type = RecordType::kReady;
  r.time = time;
  return r;
}

Record transition_record(sim::Time time, std::string uid, std::string from,
                         std::string to, std::string backend,
                         std::int64_t attempt) {
  Record r;
  r.type = RecordType::kTransition;
  r.time = time;
  r.uid = std::move(uid);
  r.from = std::move(from);
  r.to = std::move(to);
  r.backend = std::move(backend);
  r.attempt = attempt;
  return r;
}

Record alloc_record(sim::Time time, std::int64_t node, std::int64_t cores,
                    std::int64_t gpus) {
  Record r;
  r.type = RecordType::kAlloc;
  r.time = time;
  r.node = node;
  r.cores = cores;
  r.gpus = gpus;
  return r;
}

Record fault_record(sim::Time time, std::string kind, std::string backend,
                    std::int64_t index, std::int64_t count) {
  Record r;
  r.type = RecordType::kFault;
  r.time = time;
  r.kind = std::move(kind);
  r.backend = std::move(backend);
  r.index = index;
  r.count = count;
  return r;
}

Record end_record(sim::Time time, std::int64_t done, std::int64_t failed,
                  std::int64_t canceled, std::uint64_t events) {
  Record r;
  r.type = RecordType::kEnd;
  r.time = time;
  r.done = done;
  r.failed = failed;
  r.canceled = canceled;
  r.events = events;
  return r;
}

}  // namespace flotilla::journal
