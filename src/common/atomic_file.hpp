// Durable file output: write-temp-then-rename with checked I/O.
//
// Every sweep artifact (telemetry traces, rc-dse journal/manifest/
// aggregates) used to be fopen("w")'d in place with unchecked
// fprintf/fclose: a crash or full disk mid-write left a truncated file
// that a later reader parsed as corrupt data. The helpers
// here write to `<path>.tmp.<pid>`, flush + fsync, close with the return
// value checked, and only then rename(2) over the target — so readers
// observe either the old complete file or the new complete file, never a
// prefix. The rename is followed by an fsync of the containing directory
// so the new name itself survives a crash.
#pragma once

#include <cstdio>
#include <string>

namespace rc {

/// One-shot atomic write of `content` to `path`. Returns false (and fills
/// *err when non-null) on any I/O failure; the target is left untouched
/// and the temporary is unlinked.
bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* err);

/// Streaming variant for writers that produce output incrementally
/// (telemetry traces can be large). Usage:
///
///   AtomicFile out(path);
///   if (!out.stream()) ...            // open failed
///   std::fprintf(out.stream(), ...);  // any number of writes
///   if (!out.commit(&err)) ...        // flush+fsync+close+rename, checked
///
/// Destruction without commit() unlinks the temporary and leaves the
/// target untouched (the abort path for a writer that failed mid-way).
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Destination stream, or nullptr when the temporary could not be opened.
  std::FILE* stream() { return f_; }
  bool commit(std::string* err);

 private:
  std::string path_;
  std::string tmp_;
  std::FILE* f_ = nullptr;
  bool committed_ = false;
};

/// Append `line` (a newline is added) to an already-open stream and push
/// it all the way to disk: fflush + fsync, both checked. For journals
/// where each record must individually survive a crash of the writer.
bool append_line_durable(std::FILE* f, const std::string& line);

/// fsync the directory containing `path` so a just-renamed or just-created
/// name survives a crash. Returns false on failure (non-fatal for most
/// callers, but reported so sweeps can warn).
bool fsync_parent_dir(const std::string& path);

}  // namespace rc
