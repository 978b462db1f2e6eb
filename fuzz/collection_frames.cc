// Fuzz harness: collection-frame stream decoding (protocols/wire.h).
//
// Drives the strict CollectionFrameReader and the streaming
// ScanCompleteFrames prescan over the same arbitrary bytes and checks
// they agree — the prescan's "complete prefix" must re-walk cleanly, and
// the only violation the prescan may report early is an empty collection
// id. Every view handed out must lie inside the input buffer (ASan
// checks that for free; the explicit asserts keep the replay build
// honest too).

#include <cstdint>
#include <string_view>

#include "fuzz/fuzz_input.h"
#include "protocols/wire.h"

namespace {

// Walks `data[0, limit)` strictly; returns the encoded size of the first
// whole frame (0 when there is none) and asserts basic geometry.
// `expect_clean` demands an OK end-of-stream exactly at `limit`.
size_t StrictWalk(const uint8_t* data, size_t limit, bool expect_clean) {
  ldpm::CollectionFrameReader reader(data, limit);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  size_t first_frame_bytes = 0;
  size_t last_end = 0;
  while (reader.Next(id, payload, payload_size)) {
    if (first_frame_bytes == 0) first_frame_bytes = reader.frame_end_offset();
    LDPM_FUZZ_ASSERT(!id.empty(), "decoded frame has an empty id");
    LDPM_FUZZ_ASSERT(reader.frame_offset() == last_end,
                     "frames are not contiguous");
    LDPM_FUZZ_ASSERT(reader.frame_end_offset() <= limit,
                     "frame end past the buffer");
    LDPM_FUZZ_ASSERT(payload_size == 0 ||
                         (payload >= data && payload + payload_size <=
                                                 data + limit),
                     "payload view out of bounds");
    last_end = reader.frame_end_offset();
  }
  if (expect_clean) {
    LDPM_FUZZ_ASSERT(reader.status().ok(),
                     "prescan-approved prefix failed the strict walk");
    LDPM_FUZZ_ASSERT(last_end == limit,
                     "strict walk of a whole-frame prefix left bytes over");
  }
  return first_frame_bytes;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (64u << 10)) return 0;  // framing bugs don't need megabytes

  ldpm::FrameStreamPrefix prefix;
  const ldpm::Status scan =
      ldpm::ScanCompleteFrames(data, size, &prefix, /*max_frame_bytes=*/0);
  LDPM_FUZZ_ASSERT(prefix.bytes <= size, "prefix.bytes past the buffer");

  // Differential check: everything the prescan called complete must
  // strict-walk cleanly, ending exactly at a frame boundary.
  const size_t first_frame_bytes =
      StrictWalk(data, prefix.bytes, /*expect_clean=*/true);
  if (!scan.ok()) {
    // The only unfixable-by-more-bytes violation is an empty id; the
    // strict reader must reject the full buffer too.
    StrictWalk(data, size, /*expect_clean=*/false);
  }

  // A frame-size cap can only shrink the accepted prefix, never grow it
  // or end it mid-frame.
  ldpm::FrameStreamPrefix capped;
  const size_t cap = 1 + first_frame_bytes / 2;
  (void)ldpm::ScanCompleteFrames(data, size, &capped, cap);
  LDPM_FUZZ_ASSERT(capped.bytes <= prefix.bytes,
                   "a size cap admitted extra bytes");
  StrictWalk(data, capped.bytes, /*expect_clean=*/true);

  // The strict walk over the raw buffer must never crash either way.
  StrictWalk(data, size, /*expect_clean=*/false);
  return 0;
}
