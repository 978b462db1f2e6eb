// Fuzz harness: checkpoint container decoding (engine/checkpoint.h).
//
// Mode byte 0: the remaining bytes are thrown at both in-memory
// decoders — the collector container and the bare snapshot-payload
// parser. Any outcome but a clean Status (or a valid parse) is a finding.
//
// Mode byte 1: the bytes are written to a scratch generation-0 file and
// restored through ReadCollectorCheckpointWithFallback, exercising the
// rotation walk and the corrupt-file quarantine rename on the same
// hostile image (the path tier-1 tests only cover with well-formed
// corruptions). Scratch files are removed afterwards so corpus runs
// don't accumulate state.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "engine/checkpoint.h"
#include "fuzz/fuzz_input.h"

namespace {

void DecodeAll(const uint8_t* data, size_t size) {
  (void)ldpm::engine::DecodeCollectorCheckpoint(data, size);
  (void)ldpm::engine::DeserializeSnapshot(data, size);
}

void FallbackWalk(const uint8_t* data, size_t size) {
  namespace fs = std::filesystem;
  static const std::string base =
      (fs::temp_directory_path() /
       ("ldpm_fuzz_ckpt." + std::to_string(::getpid())))
          .string();
  const int generations = 2;
  const std::string gen0 =
      ldpm::engine::CheckpointGenerationPath(base, 0);
  {
    std::ofstream out(gen0, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  ldpm::engine::CheckpointFallbackInfo info;
  auto restored = ldpm::engine::ReadCollectorCheckpointWithFallback(
      base, generations, &info);
  // A hostile newest generation must be quarantined (renamed out of the
  // rotation), never left in place to poison the next restore.
  std::error_code exists_ec;
  LDPM_FUZZ_ASSERT(restored.ok() || !fs::exists(gen0, exists_ec),
                   "rejected generation-0 file was not quarantined");
  std::error_code ec;
  for (int g = 0; g < generations; ++g) {
    const std::string p = ldpm::engine::CheckpointGenerationPath(base, g);
    fs::remove(p, ec);
    fs::remove(p + ".corrupt", ec);
  }
  fs::remove(base, ec);
  fs::remove(base + ".corrupt", ec);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > (256u << 10)) return 0;
  ldpm::fuzz::FuzzInput input(data, size);
  const bool file_mode = (input.TakeByte() & 1) != 0;
  if (file_mode) {
    FallbackWalk(input.remaining_data(), input.remaining_size());
  } else {
    DecodeAll(input.remaining_data(), input.remaining_size());
  }
  return 0;
}
