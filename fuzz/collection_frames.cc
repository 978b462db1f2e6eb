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
#include <vector>

#include "fuzz/fuzz_input.h"
#include "protocols/wire.h"

namespace {

// Walks `data[0, limit)` strictly; returns the end offset of every whole
// frame and asserts basic geometry. `expect_clean` demands an OK
// end-of-stream exactly at `limit`.
std::vector<size_t> StrictWalk(const uint8_t* data, size_t limit,
                               bool expect_clean) {
  ldpm::CollectionFrameReader reader(data, limit);
  std::string_view id;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
  std::vector<size_t> frame_ends;
  size_t last_end = 0;
  while (reader.Next(id, payload, payload_size)) {
    frame_ends.push_back(reader.frame_end_offset());
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
  return frame_ends;
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
  const std::vector<size_t> frame_ends =
      StrictWalk(data, prefix.bytes, /*expect_clean=*/true);
  if (!scan.ok()) {
    // The only unfixable-by-more-bytes violation is an empty id; the
    // strict reader must reject the full buffer too.
    StrictWalk(data, size, /*expect_clean=*/false);
  }

  // A frame-size cap drawn from the input: the size of the prefix frame
  // the last byte picks, or one less. The capped scan admits exactly the
  // leading frames no larger than the cap and stops at the boundary before
  // the first one over it, reporting that frame's size; when every prefix
  // frame fits, it stops where the uncapped scan did.
  if (!frame_ends.empty()) {
    const size_t pick = data[size - 1];
    const size_t n = frame_ends.size();
    const size_t j = pick % n;
    const size_t cap = frame_ends[j] - (j == 0 ? 0 : frame_ends[j - 1]) -
                       (pick / n) % 2;  // a frame is >= 7 bytes: cap > 0
    ldpm::FrameStreamPrefix capped;
    const ldpm::Status capped_scan =
        ldpm::ScanCompleteFrames(data, size, &capped, cap);
    size_t admitted = 0;
    size_t boundary = 0;
    while (admitted < n && frame_ends[admitted] - boundary <= cap) {
      boundary = frame_ends[admitted++];
    }
    LDPM_FUZZ_ASSERT(capped.bytes == boundary,
                     "a capped scan stopped off the boundary before the "
                     "first frame over its cap");
    if (admitted < n) {
      LDPM_FUZZ_ASSERT(capped_scan.ok(), "a capped scan failed early");
      LDPM_FUZZ_ASSERT(
          capped.pending_frame_bytes == frame_ends[admitted] - boundary &&
              capped.pending_frame_bytes > cap,
          "a capped scan misreported the frame over its cap");
    } else {
      LDPM_FUZZ_ASSERT(capped_scan.code() == scan.code() &&
                           capped.pending_frame_bytes ==
                               prefix.pending_frame_bytes,
                       "a cap every frame fits changed the scan");
    }
  }

  // The strict walk over the raw buffer must never crash either way.
  StrictWalk(data, size, /*expect_clean=*/false);
  return 0;
}
