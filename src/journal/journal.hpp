// Append-only journal writer + crash-tolerant reader (docs/recovery.md).
//
// The writer appends encoded records to an in-memory byte buffer; the
// caller persists the bytes (flotilla-run --journal streams them to a
// file, the fuzz harness keeps them in memory). Appends are line-atomic:
// the buffer only ever grows by whole records, so a simulated crash
// between events leaves a clean prefix. Torn tails — a real crash mid-
// write() — are the reader's job: an incomplete final line is discarded
// and reported as truncation, while a checksum or grammar failure on a
// *complete* line is corruption, reported with the record index.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "journal/record.hpp"

namespace flotilla::journal {

class Writer {
 public:
  Writer() = default;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer();

  // Appends one record (encoded, checksummed, '\n'-terminated). A record
  // that raises leaves the bytes and the count unchanged.
  void append(const Record& record);

  std::string_view bytes() const { return {data_, size_}; }
  std::size_t records() const { return records_; }

 private:
  // The bytes live in a malloc'd block grown by realloc, which glibc
  // serves for large blocks with mremap, so growth does not copy the
  // journal. Each record is encoded into the reused `line_` first.
  char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::string line_;
  std::size_t records_ = 0;
};

struct ReadResult {
  std::vector<Record> records;  // every intact record, in order

  // A final line without '\n' or whose checksum fails: the classic
  // crash-mid-write artifact. The partial bytes are discarded; recovery
  // proceeds from the last intact record.
  bool truncated = false;
  std::size_t truncated_bytes = 0;  // length of the discarded tail

  // A non-final line that fails its checksum or does not parse: the
  // journal is damaged, not merely torn. corrupt_index is the index the
  // bad record would have had.
  bool corrupt = false;
  std::size_t corrupt_index = 0;
  std::string error;

  bool intact() const { return !corrupt; }
};

// Decodes journal bytes. Never throws: damage is reported in the result
// so callers can decide whether a torn tail is acceptable (recovery) or
// any damage is fatal (the codec tests).
ReadResult read(std::string_view bytes);

}  // namespace flotilla::journal
