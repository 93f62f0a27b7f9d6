//===- perfbench/main.cpp - The repository benchmark runner ----------------==//
//
//   jrpm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --expected <expected.json> --scratch <dir>
//   jrpm-perfbench --bless <expected.json> --scratch <dir>
//
// One process, one thread. Set-up runs several times, before and between
// timed passes, and reports its median; a warm-up pass runs the traced code
// path (counters attached, spans off) and checks every digest; then passes
// of the workload's job list run until --seconds have elapsed. With --trace 0 every pass is
// untraced and the end-to-end metrics are printed; with --trace 1 untraced
// and traced passes alternate, and the per-layer metrics are printed,
// including the traced passes' overhead against the untraced ones.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>

using namespace perfbench;

namespace {

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Expected;
  std::string Scratch;
  std::string Bless;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "jrpm-perfbench: %s\n"
               "usage: jrpm-perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --expected <file> --scratch "
               "<dir>\n"
               "       jrpm-perfbench --bless <file> --scratch <dir>\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::stoull(V);
    else if (A == "--seconds")
      O.Seconds = std::stod(V);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--expected")
      O.Expected = V;
    else if (A == "--scratch")
      O.Scratch = V;
    else if (A == "--bless")
      O.Bless = V;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Scratch.empty())
    usage("--scratch is required");
  return O;
}

std::string hex(std::uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)V);
  return Buf;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The best pass, built job by job: the sum over jobs of each job's
/// fastest time in the run. Host noise (neighbours on a shared machine)
/// only ever adds time, and it comes and goes within seconds, so per-job
/// minima repeat across runs better than a median pass does.
double bestPass(const std::vector<std::vector<double>> &JobS) {
  double Sum = 0;
  for (const std::vector<double> &S : JobS)
    Sum += *std::min_element(S.begin(), S.end());
  return Sum;
}

/// Per-job digests kept with the benchmark.
struct Expected {
  std::vector<std::string> Digests;
  std::vector<std::string> Counters;
};

Expected loadExpected(const std::string &Path, const std::string &Key) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  jrpm::Json Doc;
  std::string Err;
  if (!In || !jrpm::Json::parse(SS.str(), Doc, &Err))
    usage(("cannot read " + Path + " " + Err).c_str());
  const jrpm::Json *Entry = Doc.find(Key);
  if (!Entry)
    usage(("no expected digests for " + Key).c_str());
  Expected E;
  for (const char *Field : {"digests", "counters"}) {
    const jrpm::Json *List = Entry->find(Field);
    if (!List || !List->isString())
      usage(("malformed entry " + Key).c_str());
    std::istringstream Words(List->str());
    std::string D;
    while (Words >> D)
      (Field[0] == 'd' ? E.Digests : E.Counters).push_back(D);
  }
  return E;
}

/// Runs every job once in canonical order on the traced code path with
/// spans off; returns the results.
std::vector<JobResult> checkPass(Workload &W, SpanLog &Spans,
                                 jrpm::metrics::Registry &Reg,
                                 LayerCounts &Counts) {
  bool Was = Spans.enabled();
  Spans.setEnabled(false);
  std::vector<JobResult> Out;
  for (std::size_t I = 0; I < W.jobs(); ++I) {
    JobContext Ctx{Spans, 0, &Reg, &Counts};
    Out.push_back(W.run(I, /*Traced=*/true, Ctx));
  }
  Spans.setEnabled(Was);
  return Out;
}

int bless(const Options &O) {
  jrpm::Json Doc = jrpm::Json::object();
  auto Record = [&](Workload &W) {
    SpanLog Spans;
    W.setup(Spans);
    jrpm::metrics::Registry Reg;
    LayerCounts Counts;
    std::vector<JobResult> Traced = checkPass(W, Spans, Reg, Counts);
    std::string Digests, Counters;
    for (std::size_t I = 0; I < W.jobs(); ++I) {
      // Both code paths must agree before their digest is kept.
      JobContext Ctx{Spans, 0, nullptr, nullptr};
      JobResult Plain = W.run(I, /*Traced=*/false, Ctx);
      if (!Traced[I].Ok || !Plain.Ok || Plain.Digest != Traced[I].Digest) {
        std::fprintf(stderr, "bless: %s job %zu fails its check\n",
                     W.expectedKey().c_str(), I);
        std::exit(1);
      }
      Digests += (I ? " " : "") + hex(Traced[I].Digest);
      Counters += (I ? " " : "") + hex(Traced[I].CounterDigest);
    }
    jrpm::Json &Entry = Doc[W.expectedKey()];
    Entry["digests"] = Digests;
    Entry["counters"] = Counters;
    std::fprintf(stderr, "bless: %s, %zu jobs\n", W.expectedKey().c_str(),
                 W.jobs());
  };
  for (const std::string &Name : workloadNames()) {
    // Only the corpus reads the seed.
    std::uint64_t Seeds = Name == "corpus" ? CorpusBaseSeeds : 1;
    for (std::uint64_t Seed = 0; Seed < Seeds; ++Seed)
      Record(*makeWorkload(Name, Seed, O.Scratch));
  }
  std::ofstream Out(O.Bless);
  Out << Doc.dump();
  return Out ? 0 : 1;
}

/// Self time per layer over the spans of timed passes, plus job time.
struct Attribution {
  std::map<std::string, double> SelfMs;
  std::map<std::string, double> SetupSelfMs;
  double JobMs = 0;
};

Attribution attribute(const std::vector<Span> &Spans) {
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  Attribution A;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Self = (S.EndUs - S.StartUs - ChildUs[I]) / 1000.0;
    (S.Job == SetupJob ? A.SetupSelfMs : A.SelfMs)[S.Layer] += Self;
    if (S.Parent < 0 && S.Job != SetupJob)
      A.JobMs += (S.EndUs - S.StartUs) / 1000.0;
  }
  return A;
}

/// Chrome trace-event document of every span (chrome://tracing, Perfetto).
void writeSpans(const std::vector<Span> &Spans, const std::string &Path) {
  std::ofstream Out(Path);
  Out << "{\"traceEvents\": [\n";
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                  "1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"job\": %lld, "
                  "\"parent\": %d}}\n",
                  I ? "," : "", S.Layer, S.StartUs, S.EndUs - S.StartUs,
                  S.Job == SetupJob ? -1LL : (long long)S.Job, S.Parent);
    Out << Buf;
  }
  Out << "]}\n";
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the parent's footprint is not
/// counted.
double peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // reported in kB
  return 0;
}

class MetricsOut {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    if (!std::isfinite(Value))
      Value = 0;
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", Value);
    Items.push_back("\"" + Name + "\": {\"value\": " + Buf +
                    ", \"unit\": \"" + Unit + "\"}");
    std::fprintf(stderr, "  %-26s %14.6g %s\n", Name.c_str(), Value, Unit);
  }
  std::string json() const {
    std::string S = "{";
    for (std::size_t I = 0; I < Items.size(); ++I)
      S += (I ? ", " : "") + Items[I];
    return S + "}";
  }

private:
  std::vector<std::string> Items;
};

int runBenchmark(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Seed, O.Scratch);
  if (!W)
    usage(("unknown workload " + O.Workload).c_str());
  Expected Exp = loadExpected(O.Expected, W->expectedKey());

  SpanLog Spans;
  Spans.setEnabled(O.Trace);

  // Set-up runs three times before timing and again between timed passes
  // (see below), so its median spans the whole run: the host's slow phases
  // last seconds, and a median taken in one burst catches just one phase.
  std::vector<double> SetupS;
  double SetupTotal = 0;
  auto SetUp = [&] {
    Spans.setEnabled(O.Trace);
    Clock::time_point T0 = Clock::now();
    W->setup(Spans);
    SetupS.push_back(secondsSince(T0));
    SetupTotal += SetupS.back();
  };
  for (int I = 0; I < 3; ++I)
    SetUp();
  const std::size_t Jobs = W->jobs();
  if (Exp.Digests.size() != Jobs || Exp.Counters.size() != Jobs)
    usage("expected digests do not match the job list");

  std::uint64_t Attempted = 0, Failed = 0;
  auto Check = [&](std::size_t I, const JobResult &R, bool Counters) {
    ++Attempted;
    bool Good = R.Ok && hex(R.Digest) == Exp.Digests[I] &&
                (!Counters || hex(R.CounterDigest) == Exp.Counters[I]);
    if (!Good && ++Failed <= 5)
      std::fprintf(stderr,
                   "FAIL: %s job %zu: check %s, digest %s (expected %s), "
                   "counters %s (expected %s)\n",
                   O.Workload.c_str(), I, R.Ok ? "ok" : "failed",
                   hex(R.Digest).c_str(), Exp.Digests[I].c_str(),
                   Counters ? hex(R.CounterDigest).c_str() : "-",
                   Exp.Counters[I].c_str());
  };

  // Warm-up pass on the traced path: fills caches, checks every digest and
  // gives the simulated end-to-end figures (identical in every pass).
  std::vector<JobResult> Warm;
  {
    jrpm::metrics::Registry Reg;
    LayerCounts Counts;
    Warm = checkPass(*W, Spans, Reg, Counts);
    Digest PassDigest;
    for (std::size_t I = 0; I < Jobs; ++I) {
      Check(I, Warm[I], true);
      PassDigest.add(Warm[I].Digest);
      PassDigest.add(Warm[I].CounterDigest);
    }
    std::printf("digest %s %s\n", O.Workload.c_str(),
                hex(PassDigest.value()).c_str());
  }

  // Timed passes.
  std::vector<std::size_t> Order(Jobs);
  std::iota(Order.begin(), Order.end(), 0);
  std::mt19937_64 Rng(O.Seed);
  // Host seconds of every job in every pass, untraced and traced.
  std::vector<std::vector<double>> PlainJobS(Jobs), TracedJobS(Jobs);
  std::uint64_t PlainPasses = 0, TracedPasses = 0;
  jrpm::metrics::Registry PassReg;
  LayerCounts PassCounts;
  std::uint32_t JobId = 0;
  // A traced run needs at least one pass of each kind.
  const std::uint64_t MinPasses = O.Trace ? 2 : 1;
  Clock::time_point Start = Clock::now();
  for (std::uint64_t Pass = 0;
       Pass < MinPasses || secondsSince(Start) < O.Seconds; ++Pass) {
    bool Traced = O.Trace && Pass % 2 == 1;
    Spans.setEnabled(Traced);
    std::shuffle(Order.begin(), Order.end(), Rng);
    jrpm::metrics::Registry Reg;
    LayerCounts Counts;
    for (std::size_t I : Order) {
      JobContext Ctx{Spans, JobId++, Traced ? &Reg : nullptr,
                     Traced ? &Counts : nullptr};
      JobResult R;
      Clock::time_point T0 = Clock::now();
      if (Traced) {
        Scope S(Spans, "job", Ctx.Job);
        R = W->run(I, true, Ctx);
      } else {
        R = W->run(I, false, Ctx);
      }
      (Traced ? TracedJobS : PlainJobS)[I].push_back(secondsSince(T0));
      Check(I, R, Traced);
    }
    ++(Traced ? TracedPasses : PlainPasses);
    if (Traced) {
      PassReg = std::move(Reg);
      PassCounts = Counts;
    }
    // Set up afresh between passes while set-up takes under a fifth of the
    // run; the jobs then run on the new, identical inputs.
    if (SetupTotal < 0.2 * secondsSince(Start))
      SetUp();
  }

  MetricsOut M;
  bool Correct = Failed == 0;
  std::fprintf(stderr, "%s: seed %llu, %zu jobs/pass, %zu+%zu passes, %zu "
               "set-ups\n",
               O.Workload.c_str(), (unsigned long long)O.Seed, Jobs,
               (std::size_t)PlainPasses, (std::size_t)TracedPasses,
               SetupS.size());
  if (!O.Trace) {
    double LogSum = 0, ErrSum = 0;
    for (const JobResult &R : Warm) {
      LogSum += std::log(R.Speedup);
      ErrSum += std::fabs(R.Predicted - R.Reference) / R.Reference;
    }
    M.add("jobs_per_s", Jobs / bestPass(PlainJobS), "jobs/s");
    M.add("setup_s", median(SetupS), "s");
    M.add("peak_rss_mb", peakRssMiB(), "MiB");
    M.add("sim_speedup_geomean", std::exp(LogSum / Jobs), "x");
    M.add("pred_error_pct", 100.0 * ErrSum / Jobs, "%");
  } else {
    Attribution A = attribute(Spans.spans());
    double NT = static_cast<double>(TracedPasses);
    double NS = static_cast<double>(SetupS.size());
    auto Ms = [&](const char *Layer) { return A.SelfMs[Layer] / NT; };
    auto Share = [&](const char *Layer) {
      return A.JobMs > 0 ? A.SelfMs[Layer] / A.JobMs : 0.0;
    };
    auto Count = [&](const char *Name) {
      auto It = PassReg.counters().find(Name);
      return It == PassReg.counters().end() ? 0.0
                                            : double(It->second.value());
    };
    auto Ratio = [](double N, double D) { return D > 0 ? N / D : 0.0; };
    double TracerEvents = 0;
    for (const auto &[Name, C] : PassReg.counters())
      if (Name.rfind("tracer.events.", 0) == 0)
        TracerEvents += double(C.value());
    SetupFigures Fig = W->setupFigures();

    M.add("frontend.ms", Ms("frontend"), "ms");
    M.add("frontend.modules", double(PassCounts.FrontendModules), "count");
    M.add("frontend.share", Share("frontend"), "ratio");
    M.add("analysis.ms", Ms("analysis"), "ms");
    M.add("analysis.candidates", double(PassCounts.AnalysisCandidates),
          "count");
    M.add("analysis.rejected", double(PassCounts.AnalysisRejected), "count");
    M.add("analysis.share", Share("analysis"), "ratio");
    M.add("jit.ms", Ms("jit"), "ms");
    M.add("jit.plans", double(PassCounts.JitPlans), "count");
    M.add("jit.share", Share("jit"), "ratio");
    double PlainInsts = Count("interp.plain.instructions");
    M.add("interp.ms", Ms("interp"), "ms");
    M.add("interp.insts", PlainInsts, "count");
    M.add("interp.ns_per_inst", Ratio(Ms("interp") * 1e6, PlainInsts), "ns");
    M.add("interp.share", Share("interp"), "ratio");
    M.add("interp.profiled_ms", Ms("interp.profiled"), "ms");
    M.add("interp.profiled_insts", Count("interp.profiled.instructions"),
          "count");
    M.add("interp.profiled_share", Share("interp.profiled"), "ratio");
    M.add("tracer.ms", Ms("tracer"), "ms");
    M.add("tracer.events", TracerEvents, "count");
    M.add("tracer.ns_per_event",
          Ratio(Ms("tracer") * 1e6, double(PassCounts.TracerReplayedEvents)),
          "ns");
    M.add("tracer.threads", Count("tracer.threads"), "count");
    M.add("tracer.evictions",
          Count("tracer.heap_ts.evictions") +
              Count("tracer.line_table.evictions"),
          "count");
    M.add("tracer.share", Share("tracer"), "ratio");
    M.add("trace.record_ms", A.SetupSelfMs["trace.record"] / NS, "ms");
    M.add("trace.decode_ms", A.SetupSelfMs["trace.decode"] / NS, "ms");
    M.add("trace.bytes_per_event",
          Ratio(double(Fig.TraceBytes), double(Fig.TraceEvents)), "B");
    double CoreCycles = Count("spec.cycles.total");
    double Started = Count("spec.threads_started");
    M.add("hydra.ms", Ms("hydra"), "ms");
    M.add("hydra.core_cycles", CoreCycles, "count");
    M.add("hydra.ns_per_core_cycle", Ratio(Ms("hydra") * 1e6, CoreCycles),
          "ns");
    M.add("hydra.invocations", Count("spec.invocations"), "count");
    M.add("hydra.threads_started", Started, "count");
    M.add("hydra.violations", Count("spec.violations"), "count");
    M.add("hydra.commit_ratio", Ratio(Count("spec.threads_committed"), Started),
          "ratio");
    M.add("hydra.useful_ratio", Ratio(Count("spec.cycles.useful"), CoreCycles),
          "ratio");
    M.add("hydra.share", Share("hydra"), "ratio");
    M.add("corpus.oracle_self_ms", Ms("corpus"), "ms");
    M.add("corpus.share", Share("corpus"), "ratio");
    double Gap = Share("job");
    M.add("unattributed.share", Gap, "ratio");
    M.add("tracing.overhead_pct",
          100.0 * (bestPass(TracedJobS) / bestPass(PlainJobS) - 1.0),
          "%");
    // Every layer call of a job sits in a span: what is left over is the
    // benchmark's own glue, and more than that means a layer went missing.
    if (Gap > 0.05) {
      std::fprintf(stderr, "FAIL: %.1f%% of traced job time is outside every "
                   "layer span\n", 100.0 * Gap);
      Correct = false;
    }
    writeSpans(Spans.spans(), O.Scratch + "/spans-" + O.Workload + ".json");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed, M.json().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::filesystem::create_directories(O.Scratch);
  try {
    if (!O.Bless.empty())
      return bless(O);
    if (O.Workload.empty() || O.Expected.empty())
      usage("--workload and --expected are required");
    return runBenchmark(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "jrpm-perfbench: %s\n", E.what());
    return 1;
  }
}
