//===- trace/Writer.cpp ----------------------------------------------------==//

#include "trace/Writer.h"

using namespace jrpm;
using namespace jrpm::trace;

Writer::Writer(const std::string &Path, const TraceHeader &Header)
    : Path(Path) {
  File = std::fopen(Path.c_str(), "wb");
  if (!File)
    throw Error(ErrorKind::Io, "cannot open '" + Path + "' for writing");

  std::vector<std::uint8_t> Payload;
  encodeHeader(Payload, Header);
  write(FileMagic, sizeof(FileMagic));
  writeU32(FormatVersion);
  writeU32(static_cast<std::uint32_t>(Payload.size()));
  writeU32(crc32(Payload.data(), Payload.size()));
  write(Payload.data(), Payload.size());
}

Writer::~Writer() {
  if (File)
    std::fclose(File);
}

void Writer::write(const void *Data, std::size_t Size) {
  if (std::fwrite(Data, 1, Size, File) != Size)
    throw Error(ErrorKind::Io, "short write to '" + Path + "'");
  BytesWritten += Size;
}

void Writer::writeU32(std::uint32_t V) {
  std::uint8_t B[4] = {static_cast<std::uint8_t>(V),
                       static_cast<std::uint8_t>(V >> 8),
                       static_cast<std::uint8_t>(V >> 16),
                       static_cast<std::uint8_t>(V >> 24)};
  write(B, 4);
}

void Writer::appendAfterFinish() const {
  throw Error(ErrorKind::Io, "append after finish on '" + Path + "'");
}

void Writer::flushChunk() {
  if (ChunkBytes == 0)
    return;
  std::uint8_t Tag = ChunkTag;
  write(&Tag, 1);
  writeU32(static_cast<std::uint32_t>(ChunkBytes));
  writeU32(ChunkEvents);
  writeU32(crc32(Chunk.get(), ChunkBytes));
  write(Chunk.get(), ChunkBytes);
  ChunkBytes = 0;
  ChunkEvents = 0;
  Deltas = DeltaState(); // chunks decode independently
}

void Writer::finish(const interp::RunResult &Run) {
  if (!File)
    throw Error(ErrorKind::Io, "finish called twice on '" + Path + "'");
  flushChunk();
  Footer.Run = Run;

  std::vector<std::uint8_t> Payload;
  encodeFooter(Payload, Footer);
  std::uint64_t FooterStart = BytesWritten;
  std::uint8_t Tag = FooterTag;
  write(&Tag, 1);
  writeU32(static_cast<std::uint32_t>(Payload.size()));
  writeU32(crc32(Payload.data(), Payload.size()));
  write(Payload.data(), Payload.size());
  writeU32(static_cast<std::uint32_t>(BytesWritten - FooterStart));
  write(EndMagic, sizeof(EndMagic));

  std::FILE *F = File;
  File = nullptr;
  if (std::fclose(F) != 0)
    throw Error(ErrorKind::Io, "cannot close '" + Path + "'");
}
