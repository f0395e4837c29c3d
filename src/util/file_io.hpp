// Error-checked whole-file reading and atomic artifact writing.
//
// readFile is the one way the program reads an input file (LEF, DEF,
// guides, eco deltas, JSON artifacts).
//
// The CLI and daemon persist JSON artifacts (reports, traces, heatmap
// series, eco deltas) that downstream tooling parses.  A bare
// `std::ofstream << ...` silently "succeeds" on a full disk or an
// unwritable path, leaving a truncated or empty file behind.
// writeFileAtomic closes that hole: the payload goes to a temporary
// file in the destination directory, the stream state is checked
// after an explicit flush, and only a fully written temp file is
// renamed over the destination — readers never observe a partial
// artifact, and every failure mode is reported to the caller.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace crp::util {

/// Returns the whole content of `path` (one read sized by fstat, then
/// reads until end of file, so pipes and growing files work too).
/// Throws std::runtime_error("cannot read <path>: <reason>") when the
/// open or any read fails, so a directory never reads as empty text;
/// an empty file yields "".
std::string readFile(const std::string& path);

/// Writes `produce`'s output to `path` atomically: the producer
/// streams into a temp file next to the destination; after a flush
/// whose stream state is verified, the temp file is renamed into
/// place.  On any failure (open, producer-reported stream failure,
/// flush, rename) the temp file is removed, false is returned, and a
/// one-line reason is stored in *error (when non-null).  The producer
/// may itself return false to abort (e.g. after detecting its own
/// serialization problem).  An existing `path` that is not a regular
/// file (a device, FIFO or directory) is refused, never replaced.
bool writeFileAtomic(const std::string& path,
                     const std::function<bool(std::ostream&)>& produce,
                     std::string* error = nullptr);

/// Convenience overload for ready-made content.
bool writeFileAtomic(const std::string& path, std::string_view content,
                     std::string* error = nullptr);

/// writeFileAtomic for artifact writers (DEF, LEF, guides, SVG, report
/// renderings): `write` streams the content, and any failure throws
/// std::runtime_error naming `path` and the reason.
void writeFileAtomicOrThrow(const std::string& path,
                            const std::function<void(std::ostream&)>& write);

/// Appends one record line to an append-only file (the run-ledger
/// JSONL, docs/observability.md).  writeFileAtomic's temp+rename is
/// wrong for logs — it would race concurrent appenders and rewrite the
/// whole history per entry — so this uses the POSIX append contract
/// instead: the file is opened O_APPEND and `line` plus its
/// terminating '\n' go out in a single write(), which the kernel
/// applies at end-of-file atomically with respect to other O_APPEND
/// writers.  A crash can only ever truncate the final line (readers
/// skip it); a previous crash's torn tail is repaired by prefixing a
/// newline when the file does not end in one, so the next record never
/// glues onto half a line.  An exclusive flock() held from open to
/// close keeps that tail probe from seeing a concurrent appender's
/// line half-written.  Returns false with *error set on any
/// failure; the file is never left with a record half-applied by a
/// *successful* call.
bool appendLineAtomic(const std::string& path, std::string_view line,
                      std::string* error = nullptr);

}  // namespace crp::util
