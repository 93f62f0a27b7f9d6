//===- support/AtomicFile.h - Crash-safe file writes -----------------------==//
//
// The one way any Jrpm component persists bytes: write to a sibling
// temporary file, fsync it, then rename over the target. A reader that
// races the writer sees either the old file or the complete new one, and a
// crash (or power loss) between any two steps leaves the target untouched,
// so a sweep or corpus report on disk is always a complete document.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SUPPORT_ATOMICFILE_H
#define JRPM_SUPPORT_ATOMICFILE_H

#include <string>

namespace jrpm {

/// Writes \p Content to \p Path atomically and durably: the bytes go to a
/// sibling temporary file which is flushed, fsync'd, and renamed over the
/// target. Returns false (with *Err set) on I/O failure; the target is
/// never left torn and the temporary is cleaned up.
bool writeFileAtomic(const std::string &Path, const std::string &Content,
                     std::string *Err = nullptr);

/// Reads the whole of \p Path into \p Out (binary-clean). Returns false
/// (with *Err set) when the file cannot be opened or read.
bool readFileToString(const std::string &Path, std::string &Out,
                      std::string *Err = nullptr);

} // namespace jrpm

#endif // JRPM_SUPPORT_ATOMICFILE_H
