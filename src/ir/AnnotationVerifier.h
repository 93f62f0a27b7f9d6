//===- ir/AnnotationVerifier.h - Lint for profiling annotations ------------==//
//
// Static checks over an annotated module, run after pipeline step 1
// (annotation) and usable on any transformed module: `sloop`/`eoi`/`eloop`
// markers must nest like balanced brackets along every control-flow path,
// every path joining two others must agree on the active loop stack, and
// the `lwl`/`swl` local-variable annotations must match the per-loop
// annotated-locals lists the tracer was configured with (`sloop` slot
// counts included). The tracer trusts these invariants — a stray `eoi`
// charges the wrong comparator bank, an unbalanced `eloop` corrupts the
// bank free-list — so the lint turns silent statistics corruption into a
// pipeline-time failure.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_IR_ANNOTATIONVERIFIER_H
#define JRPM_IR_ANNOTATIONVERIFIER_H

#include "ir/IR.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace ir {

/// One candidate loop's annotated locals: the named locals the annotator
/// watches with `lwl`/`swl`, which the tracer gives timestamp slots. The
/// one per-loop locals table, indexed by module-global loop id: the
/// annotator builds it (jit::AnnotatedModule::LoopInfos), this verifier
/// checks against it, tracer::TraceEngine is built from it and a .jtrace
/// header carries it (trace::TraceHeader::LoopLocals).
struct LoopAnnotationInfo {
  std::vector<std::uint16_t> AnnotatedLocals;
};

/// Lints the annotation structure of \p M against the per-loop watch lists
/// \p Loops (indexed by loop id). Returns all violations found; empty means
/// the module is safe to profile.
std::vector<std::string>
verifyAnnotations(const Module &M, const std::vector<LoopAnnotationInfo> &Loops);

} // namespace ir
} // namespace jrpm

#endif // JRPM_IR_ANNOTATIONVERIFIER_H
