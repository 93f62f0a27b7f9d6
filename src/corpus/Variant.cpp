//===- corpus/Variant.cpp --------------------------------------------------==//

#include "corpus/Variant.h"

#include "frontend/Ast.h"
#include "frontend/Lower.h"
#include "support/Format.h"

#include <cassert>

using namespace jrpm;
using namespace jrpm::corpus;

std::uint64_t corpus::fnv1a(const std::string &Text) {
  std::uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

const HoleValue *VariantSpec::find(const std::string &Name) const {
  for (const HoleValue &H : Holes)
    if (H.Name == Name)
      return &H;
  return nullptr;
}

std::int64_t VariantSpec::valueOf(const std::string &Name,
                                  std::int64_t Default) const {
  const HoleValue *H = find(Name);
  return H ? H->Value : Default;
}

std::int64_t VariantSpec::weight(const Template &T) const {
  std::int64_t W = 0;
  for (const HoleValue &H : Holes)
    if (const Hole *TH = T.findHole(H.Name))
      W += TH->clamp(H.Value) - TH->Min;
  return W;
}

Json VariantSpec::toJson() const {
  Json J = Json::object();
  J["template_id"] = TemplateId;
  J["seed"] = Seed;
  // An array, not an object: JSON objects serialize with sorted keys, and
  // the hole list must round-trip in template order (VariantSpec equality
  // is order-sensitive, deliberately — it mirrors fill order).
  Json HJ = Json::array();
  for (const HoleValue &H : Holes) {
    Json One = Json::object();
    One["name"] = H.Name;
    One["value"] = H.Value;
    HJ.push(std::move(One));
  }
  J["holes"] = std::move(HJ);
  return J;
}

VariantSpec corpus::fillHoles(const Template &T, std::uint64_t Seed) {
  // The stream is keyed by both the seed and the template id, so the same
  // seed paints different templates with independent draws.
  Prng Rng(Seed ^ fnv1a(T.Id));
  VariantSpec Spec;
  Spec.TemplateId = T.Id;
  Spec.Seed = Seed;
  for (const Hole &H : T.Holes)
    Spec.Holes.push_back({H.Name, H.pick(Rng)});
  return Spec;
}

namespace {

/// Hole lookup with clamping: the shrinker proposes raw values, and a
/// repro file may carry values from an older hole range; every consumer
/// sees only valid ones.
struct HoleEnv {
  const Template &T;
  const VariantSpec &Spec;

  std::int64_t get(const char *Name) const {
    const Hole *H = T.findHole(Name);
    if (!H)
      return 0;
    return H->clamp(Spec.valueOf(Name, H->Observed));
  }
};

/// Independent filler statements: stores into the secondary array at
/// indices derived from \p Iv, alias-disjoint from every family's primary
/// dependence so they add traffic without changing the family's verdict
/// class.
void appendExtras(std::vector<front::St> &Body, front::Ex Iv,
                  std::int64_t Extra, std::int64_t Mask, std::int64_t Mix) {
  using namespace front;
  for (std::int64_t K = 0; K < Extra; ++K)
    Body.push_back(store(v("b"), band(add(Iv, c(K * 7 + 1)), c(Mask)),
                         band(add(mul(Iv, c(Mix + 2 * K)), c(K)),
                              c(0xFFFFF))));
}

} // namespace

Variant corpus::instantiate(const Template &T, const VariantSpec &Spec) {
  using namespace front;
  HoleEnv E{T, Spec};
  const std::int64_t Trip = E.get("trip");
  const std::int64_t Size = std::int64_t(1) << E.get("arr_log2");
  const std::int64_t Mask = Size - 1;
  const std::int64_t Mix = E.get("mix");
  const std::int64_t Extra = E.get("extra");
  const std::int64_t Stride = E.get("stride");
  const std::int64_t Dist = E.get("dist");

  ProgramDef P;
  std::vector<St> Body;

  // Prologue: two power-of-two arrays with deterministic contents, two
  // seeded locals. Masked indexing against Mask keeps every access in
  // bounds whatever the holes say.
  Body.push_back(assign("a", allocWords(c(Size))));
  Body.push_back(forLoop("f0", c(0), lt(v("f0"), c(Size)), 1,
                         store(v("a"), v("f0"),
                               band(mul(add(v("f0"), c(3)), c(Mix)),
                                    c(0xFFFFF)))));
  Body.push_back(assign("b", allocWords(c(Size))));
  Body.push_back(forLoop("f1", c(0), lt(v("f1"), c(Size)), 1,
                         store(v("b"), v("f1"),
                               band(mul(add(mul(v("f1"), c(2)), c(1)),
                                        c(Mix)),
                                    c(0xFFFFF)))));
  Body.push_back(assign("x0", c(Mix & 0xFF)));
  Body.push_back(assign("x1", c((Mix * 7) & 0xFF)));

  if (T.Family == "serial-walk" || T.Family == "guarded-recurrence") {
    // The textbook heap recurrence: every iteration reloads the cell the
    // previous iteration stored, at the pinned distance of 1.
    Body.push_back(assign("p", allocWords(c(8))));
    Body.push_back(store(v("p"), Ex(), 0, c(0)));
    Body.push_back(assign("q", c(0)));
    std::vector<St> Walk;
    Walk.push_back(assign("q", add(v("q"), c(1))));
    appendExtras(Walk, v("q"), Extra, Mask, Mix);
    Walk.push_back(store(v("p"), Ex(), 0, add(ld(v("p")), c(1))));
    if (T.Family == "guarded-recurrence") {
      // A periodically firing guard after the store hoists it out of the
      // latch block: the shape rule goes blind, the affine oracle must
      // still prove the distance-1 arc.
      const std::int64_t Period = std::int64_t(1) << E.get("guard_log2");
      Walk.push_back(iff(eq(band(v("q"), c(Period - 1)), c(Period - 1)),
                         store(v("b"), band(v("q"), c(Mask)), 0,
                               band(mul(v("q"), c(Mix)), c(0xFFFFF)))));
    }
    Body.push_back(whileLoop(lt(ld(v("p")), c(Trip)), seq(std::move(Walk))));
  } else if (T.Family == "may-recurrence") {
    // Store address depends on loaded data: the affine tests fall back to
    // May and only dynamic TEST can price the loop.
    std::vector<St> Loop;
    Loop.push_back(assign("t", band(ld(v("a"), band(mul(v("i"), c(Dist)),
                                                    c(Mask))),
                                    c(Mask))));
    Loop.push_back(store(v("a"),
                         band(add(mul(v("i"), c(Stride)), v("t")), c(Mask)),
                         band(add(ld(v("a"), band(mul(v("i"), c(Stride)),
                                                  c(Mask))),
                                  c(Mix)),
                              c(0xFFFFF))));
    appendExtras(Loop, v("i"), Extra, Mask, Mix);
    Body.push_back(
        forLoop("i", c(0), lt(v("i"), c(Trip)), 1, seq(std::move(Loop))));
  } else if (T.Family == "reduction") {
    std::vector<St> Loop;
    Loop.push_back(assign("x0", add(v("x0"),
                                    ld(v("a"), band(mul(v("i"), c(Stride)),
                                                    c(Mask))))));
    appendExtras(Loop, v("i"), Extra, Mask, Mix);
    Body.push_back(
        forLoop("i", c(0), lt(v("i"), c(Trip)), 1, seq(std::move(Loop))));
  } else if (T.Family == "call-mix") {
    const std::int64_t HelperTrip = E.get("helper_trip");
    FuncDef Helper;
    Helper.Name = "mixer";
    Helper.Params = {"p0", "p1"};
    Helper.Body = seq({
        assign("acc", bxor(v("p0"), c(Mix))),
        forLoop("h", c(0), lt(v("h"), c(HelperTrip)), 1,
                assign("acc", band(add(mul(v("acc"), c(Mix)), v("p1")),
                                   c(0xFFFFF)))),
        ret(v("acc")),
    });
    P.Functions.push_back(std::move(Helper));
    std::vector<St> Loop;
    Loop.push_back(assign("x0", band(add(v("x0"),
                                         call("mixer", {v("i"), v("x0")})),
                                     c(0xFFFFF))));
    appendExtras(Loop, v("i"), Extra, Mask, Mix);
    Body.push_back(
        forLoop("i", c(0), lt(v("i"), c(Trip)), 1, seq(std::move(Loop))));
  } else if (T.Family == "loop-nest") {
    const std::int64_t TripInner = E.get("trip_inner");
    std::vector<St> Outer;
    Outer.push_back(forLoop(
        "j", c(0), lt(v("j"), c(TripInner)), 1,
        store(v("a"),
              band(add(mul(v("i"), c(Stride)), v("j")), c(Mask)),
              band(add(ld(v("a"),
                          band(add(add(mul(v("i"), c(Stride)), v("j")),
                                   c(Dist)),
                               c(Mask))),
                       c(Mix)),
                   c(0xFFFFF)))));
    Outer.push_back(assign("x0", band(add(v("x0"), v("i")), c(0xFFFFF))));
    appendExtras(Outer, v("i"), Extra, Mask, Mix);
    Body.push_back(
        forLoop("i", c(0), lt(v("i"), c(Trip)), 1, seq(std::move(Outer))));
  } else if (T.Family == "affine-stride") {
    std::vector<St> Loop;
    Loop.push_back(store(v("a"), band(mul(v("i"), c(Stride)), c(Mask)),
                         band(add(ld(v("a"),
                                     band(add(mul(v("i"), c(Stride)),
                                              c(Dist)),
                                          c(Mask))),
                                  c(Mix)),
                              c(0xFFFFF))));
    appendExtras(Loop, v("i"), Extra, Mask, Mix);
    Body.push_back(
        forLoop("i", c(0), lt(v("i"), c(Trip)), 1, seq(std::move(Loop))));
  } else { // scalar-chain (and the fallback family)
    std::vector<St> Loop;
    Loop.push_back(assign("x0", band(add(mul(v("x0"), c(Mix)), v("i")),
                                     c(0xFFFFF))));
    Loop.push_back(assign("x1", band(add(v("x1"), v("x0")), c(0xFFFFF))));
    appendExtras(Loop, v("i"), Extra, Mask, Mix);
    Body.push_back(
        forLoop("i", c(0), lt(v("i"), c(Trip)), 1, seq(std::move(Loop))));
  }

  // Order-sensitive checksum epilogue over both arrays and the locals.
  Body.push_back(assign("chk", c(1)));
  Body.push_back(forLoop("c0", c(0), lt(v("c0"), c(Size)), 1,
                         assign("chk", add(mul(v("chk"), c(31)),
                                           band(ld(v("a"), v("c0")),
                                                c(0xFFFFFFFF))))));
  Body.push_back(forLoop("c1", c(0), lt(v("c1"), c(Size)), 1,
                         assign("chk", add(mul(v("chk"), c(31)),
                                           band(ld(v("b"), v("c1")),
                                                c(0xFFFFFFFF))))));
  Body.push_back(
      assign("chk", add(mul(v("chk"), c(33)), band(v("x0"), c(0xFFFFFFFF)))));
  Body.push_back(
      assign("chk", add(mul(v("chk"), c(33)), band(v("x1"), c(0xFFFFFFFF)))));
  Body.push_back(ret(v("chk")));

  FuncDef Main;
  Main.Name = "main";
  Main.Body = seq(std::move(Body));
  P.Functions.push_back(std::move(Main));

  Variant V;
  V.Spec = Spec;
  V.Module = front::lowerProgram(P);
  V.Source = V.Module.dump();
  V.Digest = fnv1a(V.Source);
  return V;
}

Variant corpus::instantiate(const Template &T, std::uint64_t Seed) {
  return instantiate(T, fillHoles(T, Seed));
}

std::string corpus::reproDocument(const Variant &V) {
  Json J = V.Spec.toJson();
  J["jrpm_corpus_repro"] = 1u;
  J["digest"] = formatString("%016llx", (unsigned long long)V.Digest);
  J["source"] = V.Source;
  return J.dump();
}

bool corpus::parseReproDocument(const std::string &Text, VariantSpec &Out,
                                std::uint64_t *Digest, std::string *Err) {
  Json J;
  if (!Json::parse(Text, J, Err))
    return false;
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (!J.isObject() || !J.find("jrpm_corpus_repro"))
    return Fail("not a jrpm corpus repro document");
  const Json *Id = J.find("template_id");
  const Json *Seed = J.find("seed");
  const Json *Holes = J.find("holes");
  if (!Id || !Id->isString() || !Seed || !Seed->isNumber() || !Holes ||
      !Holes->isArray())
    return Fail("repro document missing template_id/seed/holes");
  Out = VariantSpec();
  Out.TemplateId = Id->str();
  std::optional<std::uint64_t> SeedValue = Seed->exactUint();
  if (!SeedValue)
    return Fail("seed is not an integer in [0, 2^64)");
  Out.Seed = *SeedValue;
  for (const Json &HJ : Holes->items()) {
    const Json *Name = HJ.find("name");
    const Json *Value = HJ.find("value");
    if (!Name || !Name->isString() || !Value || !Value->isNumber())
      return Fail("malformed hole entry");
    std::optional<std::int64_t> V = Value->exactInt();
    if (!V)
      return Fail("hole value is not a 64-bit integer");
    Out.Holes.push_back({Name->str(), *V});
  }
  std::uint64_t Recorded = 0;
  if (const Json *D = J.find("digest")) {
    const std::string &Hex = D->str();
    if (!D->isString() || Hex.size() != 16 ||
        Hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos)
      return Fail("digest is not 16 hex digits");
    Recorded = std::strtoull(Hex.c_str(), nullptr, 16);
  }
  if (Digest)
    *Digest = Recorded;
  return true;
}
