//===- corpus/Variant.h - Seeded template instantiation --------------------==//
//
// A variant is a template with every hole filled. The filler draws hole
// values with the deterministic xorshift64* generator seeded from
// {template id, seed}, so the same pair always produces a byte-identical
// module (and therefore the same FNV-1a program digest) on every machine,
// thread count, and rerun — the reproducibility contract the corpus
// report, the shrinker, and the `.jrpm` repro files are built on.
//
// Every artifact derived from a variant embeds its {template_id, seed}
// provenance: a failure in a corpus report reproduces from the report
// alone (re-extract, re-fill, re-run), and a shrunk repro additionally
// carries its explicit hole assignment because minimization leaves the
// seed's original draw behind.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_CORPUS_VARIANT_H
#define JRPM_CORPUS_VARIANT_H

#include "corpus/Template.h"
#include "ir/IR.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jrpm {
namespace corpus {

/// One filled hole.
struct HoleValue {
  std::string Name;
  std::int64_t Value = 0;

  bool operator==(const HoleValue &O) const = default;
};

/// A fully specified variant: provenance plus the hole assignment. Holes
/// are stored in template hole order.
struct VariantSpec {
  std::string TemplateId;
  std::uint64_t Seed = 0;
  std::vector<HoleValue> Holes;

  bool operator==(const VariantSpec &O) const = default;

  const HoleValue *find(const std::string &Name) const;
  std::int64_t valueOf(const std::string &Name, std::int64_t Default) const;
  /// Shrink metric: total distance of every hole from its template minimum
  /// (0 = fully minimized). Holes absent from \p T count as 0.
  std::int64_t weight(const Template &T) const;

  Json toJson() const;
};

/// Fills every hole of \p T from the seeded generator.
VariantSpec fillHoles(const Template &T, std::uint64_t Seed);

/// An instantiated variant: the module, its canonical source rendering,
/// and the FNV-1a digest of that rendering.
struct Variant {
  VariantSpec Spec;
  ir::Module Module;
  std::string Source;        ///< ir::Module::dump() of the module
  std::uint64_t Digest = 0;  ///< fnv1a(Source)
};

/// Synthesizes the family skeleton of \p T with \p Spec's hole values
/// (clamped into each hole's validity range), lowers and finalizes it.
/// The result is terminating, trap-free, and returns an order-sensitive
/// checksum — the properties every oracle relies on.
Variant instantiate(const Template &T, const VariantSpec &Spec);

/// Convenience: fillHoles + instantiate.
Variant instantiate(const Template &T, std::uint64_t Seed);

/// Renders the reproducible `.jrpm` repro document: provenance
/// ({template_id, seed}), the explicit hole assignment, the program
/// digest, and the module source.
std::string reproDocument(const Variant &V);

/// Parses a repro document back into its spec. \p Digest (optional)
/// receives the recorded program digest (0 when the document has none).
/// Returns false with *Err set on malformed input, including a seed or hole
/// value that is not an integer in range and a digest that is not 16 hex
/// digits.
bool parseReproDocument(const std::string &Text, VariantSpec &Out,
                        std::uint64_t *Digest = nullptr,
                        std::string *Err = nullptr);

} // namespace corpus
} // namespace jrpm

#endif // JRPM_CORPUS_VARIANT_H
