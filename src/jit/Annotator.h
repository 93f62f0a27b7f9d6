//===- jit/Annotator.h - Inserting TEST annotation instructions ------------==//
//
// The microJIT-analog pass of Section 5.1: clones the module and instruments
// every non-rejected candidate STL with `sloop`/`eoi`/`eloop` markers,
// `lwl`/`swl` local-variable annotations, and statistics read-out calls.
// Two annotation levels reproduce Figure 6's bars: Base annotates every
// access of a tracked local and reads statistics at every STL exit;
// Optimized annotates only the first load of a local per basic block and
// hoists statistics reads to outermost candidate loops.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_JIT_ANNOTATOR_H
#define JRPM_JIT_ANNOTATOR_H

#include "analysis/Candidates.h"
#include "ir/AnnotationVerifier.h"
#include "ir/IR.h"

#include <vector>

namespace jrpm {
namespace jit {

enum class AnnotationLevel { Base, Optimized };

struct AnnotatedModule {
  ir::Module Module;
  /// Per-loop annotated locals, indexed by loop id.
  std::vector<ir::LoopAnnotationInfo> LoopInfos;
  /// Number of annotation instructions inserted (for reporting).
  std::uint64_t LocalAnnotations = 0;
  std::uint64_t LoopMarkers = 0;
  std::uint64_t StatReads = 0;
};

/// Produces the instrumented copy of \p M. \p MA must be the analysis of
/// \p M itself.
AnnotatedModule annotateModule(const ir::Module &M,
                               const analysis::ModuleAnalysis &MA,
                               AnnotationLevel Level);

} // namespace jit
} // namespace jrpm

#endif // JRPM_JIT_ANNOTATOR_H
