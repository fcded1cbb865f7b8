//===- driver.cpp - Seeded closed-loop benchmark over the shipped VM ---------===//
///
/// \file
/// Runs one named workload against the VM configuration the repository
/// ships, in a closed loop with one client thread: the next op starts when
/// the previous one returns. Prints every metric by name and unit, checks
/// every op against a reference, and ends with one JSON line.
///
///   perfbench_driver --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> [--trace-out <file>] [--ea none|partial]
///
/// --trace-out names the Chrome trace file and is required with --trace 1.
///
/// Workloads (see README.md for why each exists):
///   pea-churn    Table 1 rows where PEA removes the largest allocation share
///   escape-gc    rows whose allocations mostly escape: the GC does the work
///   flat-locks   rows with no allocation churn and many monitor ops
///   jit-compile  one op = runCompilePipeline + emitNativeCode of one hot
///                method of an isolate warmed over all 27 rows
///
/// Everything is measured from outside the program: the driver times its
/// own calls into the VM's public functions and reads the deltas of
/// counters the VM already keeps. With --trace 1 it also keeps spans in
/// memory and writes them as Chrome trace_event JSON at exit; end-to-end
/// numbers come only from --trace 0 runs.
///
/// --ea none exists for the self-test's one-off check that PEA removes
/// allocations on pea-churn; every measured run uses the shipped
/// partial escape analysis.
///
//===----------------------------------------------------------------------===//

#include "compiler/PhasePlan.h"
#include "jit/NativeCode.h"
#include "vm/CompileBroker.h"
#include "vm/Isolate.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace jvm;
using namespace jvm::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const char *Fmt, ...) {
  std::va_list Ap;
  va_start(Ap, Fmt);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, Fmt, Ap);
  std::fputc('\n', stderr);
  va_end(Ap);
  std::exit(2);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of \p Sorted (ascending); \p Beyond receives the
/// number of samples strictly after the returned rank.
double percentile(const std::vector<double> &Sorted, double P,
                  size_t *Beyond = nullptr) {
  if (Sorted.empty())
    return 0;
  // The epsilon keeps P * N from rounding up past an exact rank.
  size_t Rank = static_cast<size_t>(std::ceil(P * Sorted.size() - 1e-9));
  size_t Idx = Rank ? Rank - 1 : 0;
  if (Beyond)
    *Beyond = Sorted.size() - Idx - 1;
  return Sorted[Idx];
}

/// SplitMix64: the whole op sequence derives from --seed through this
/// generator, so the same seed gives the same inputs on every host.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Configuration
//===----------------------------------------------------------------------===//

/// Table 1's compile threshold: call-heavy library methods collect mature
/// profiles before they compile (see workloads/Harness.h).
constexpr uint64_t ShippedCompileThreshold = 500;

/// The configuration the repository ships, pinned here rather than read
/// from the environment: native tier, partial escape analysis, speculation
/// off, synchronous compilation (exact counts, one mutator thread) and the
/// default heap with adaptive GC workers.
VMOptions shippedOptions(EscapeAnalysisMode EA) {
  VMOptions O;
  O.Compiler = CompilerOptions();
  O.Compiler.EAMode = EA;
  O.Compiler.EnableSpesh = false;
  O.EnableJit = true;
  O.CompileThreshold = ShippedCompileThreshold;
  O.CompilerThreads = 0;
  O.Exec = ExecMode::Native;
  O.EnableNativeTier = true;
  O.Memory = memory::MemoryConfig();
  return O;
}

/// Every JVM_* variable is a VM knob (tier, speculation, heap, GC, tracing,
/// profiling, compiler threads, dumps); any of them would change what is
/// measured, so the benchmark refuses to run rather than measure it.
void refuseContaminatedEnvironment() {
  for (char **E = environ; *E; ++E) {
    if (std::strncmp(*E, "JVM_", 4) != 0)
      continue;
    const char *Eq = std::strchr(*E, '=');
    std::string Name(*E, Eq ? static_cast<size_t>(Eq - *E) : std::strlen(*E));
    die("%s is set; it changes the measured VM configuration. Unset it "
        "(the benchmark pins its configuration in code).",
        Name.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct WorkloadSpec {
  const char *Name;
  /// Table 1 rows one op calls, once each, in a seeded order. Empty for
  /// jit-compile, whose setup runs all rows.
  std::vector<const char *> Rows;
};

const WorkloadSpec Workloads[] = {
    {"pea-churn",
     {"factorie", "sunflow", "actors", "specs", "scalac", "specjbb2005"}},
    {"escape-gc", {"tomcat", "tmt", "fop", "kiama", "scalaxb", "tradebeans"}},
    {"flat-locks", {"avrora", "luindex", "pmd", "eclipse", "tradesoap"}},
    {"jit-compile", {}},
};

/// Table 1's warmup length: the floor before steadiness is judged.
constexpr unsigned MinWarmupOps = 12;
/// Consecutive ops that install, invalidate and deopt nothing.
constexpr unsigned QuietOps = 3;
constexpr unsigned MaxWarmupOps = 400;
/// Fresh isolates per run. Each is set up, warmed and then measured for
/// 1/Segments of the window; setup_s, ops_per_s and op_p50_us are medians
/// over the segments, so one slow isolate (code and heap placement) or a
/// burst of load on a shared host moves them less.
constexpr unsigned Segments = 4;
/// Reference ops run in the JIT-off isolate. Two, so the reference itself
/// shows each row's result does not depend on call history.
constexpr unsigned ReferenceOps = 2;

//===----------------------------------------------------------------------===//
// Counters the VM already keeps, read as deltas
//===----------------------------------------------------------------------===//

struct Counters {
  uint64_t InterpOps = 0, InterpCalls = 0, CompiledOps = 0, CompiledCalls = 0;
  uint64_t MonitorOps = 0, Deopts = 0;
  uint64_t Allocs = 0, AllocBytes = 0, Scavenges = 0, FullGcs = 0;
  uint64_t BytesCopied = 0, BytesPromoted = 0, CardsDirtied = 0;
  uint64_t CardsScanned = 0;
  uint64_t Compilations = 0, Invalidations = 0, StallNs = 0;
  /// Index into gcRecords(): not a count, so not in Fields.
  size_t GcRecords = 0;

  static constexpr uint64_t Counters::*Fields[] = {
      &Counters::InterpOps,     &Counters::InterpCalls,
      &Counters::CompiledOps,   &Counters::CompiledCalls,
      &Counters::MonitorOps,    &Counters::Deopts,
      &Counters::Allocs,        &Counters::AllocBytes,
      &Counters::Scavenges,     &Counters::FullGcs,
      &Counters::BytesCopied,   &Counters::BytesPromoted,
      &Counters::CardsDirtied,  &Counters::CardsScanned,
      &Counters::Compilations,  &Counters::Invalidations,
      &Counters::StallNs};

  static Counters of(Isolate &I) {
    Counters C;
    const Runtime &R = I.runtime();
    const RuntimeMetrics &RM = R.metrics();
    C.InterpOps = RM.InterpretedOps;
    C.InterpCalls = RM.InterpretedCalls;
    C.CompiledOps = RM.CompiledOps;
    C.CompiledCalls = RM.CompiledCalls;
    C.MonitorOps = RM.MonitorOps;
    C.Deopts = RM.Deopts;
    const auto &H = R.heap();
    C.Allocs = H.allocationCount();
    C.AllocBytes = H.allocatedBytes();
    C.Scavenges = H.scavenges();
    C.FullGcs = H.fullGcs();
    C.BytesCopied = H.bytesCopied();
    C.BytesPromoted = H.bytesPromoted();
    C.CardsDirtied = H.cardsDirtied();
    C.CardsScanned = H.cardsScanned();
    C.GcRecords = H.gcRecords().size();
    const JitMetrics &J = I.jitMetrics();
    C.Compilations = J.Compilations;
    C.Invalidations = J.Invalidations;
    C.StallNs = J.MutatorStallNanos;
    return C;
  }

  Counters operator-(const Counters &B) const {
    Counters D;
    for (uint64_t Counters::*F : Fields)
      D.*F = this->*F - B.*F;
    return D;
  }
  Counters &operator+=(const Counters &D) {
    for (uint64_t Counters::*F : Fields)
      this->*F += D.*F;
    return *this;
  }
};

/// GC pause nanoseconds of the collections recorded after \p From.
uint64_t gcPauseSince(Isolate &I, size_t From) {
  const auto &Log = I.runtime().heap().gcRecords();
  uint64_t Sum = 0;
  for (size_t K = From; K < Log.size(); ++K)
    Sum += Log[K].PauseNanos;
  return Sum;
}

//===----------------------------------------------------------------------===//
// Span recorder (Chrome trace_event JSON)
//===----------------------------------------------------------------------===//

/// Spans kept in memory and written at exit. One mutator thread records,
/// so events are appended in timestamp order. GC pause and compile stall
/// are charged to the span they happened in as child durations (args on
/// the closing event), so self time = span - children.
class SpanRecorder {
public:
  static constexpr size_t Capacity = 1 << 18;

  struct Arg {
    const char *Key;
    double Value;
  };

  SpanRecorder() { Events.reserve(4096); }

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span; returns null (and records nothing) when the buffer has
  /// no room for it and the closing events of the spans still open, in
  /// which case the caller must not close it.
  const std::string *begin(const std::string &Name) {
    if (Events.size() + Open + 2 > Capacity) {
      Dropped += 2;
      return nullptr;
    }
    const std::string *Interned = &*Names.insert(Name).first;
    Events.push_back({'B', Interned, nowNs(), {}});
    ++Open;
    return Interned;
  }

  void end(const std::string *Name, std::vector<Arg> Args) {
    Events.push_back({'E', Name, nowNs(), std::move(Args)});
    --Open;
  }

  bool writeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    int Pid = static_cast<int>(getpid());
    std::fprintf(F, "{\"traceEvents\":[\n");
    std::fprintf(F,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":1,\"args\":{\"name\":\"perfbench client\"}}",
                 Pid);
    for (const Event &E : Events) {
      std::fprintf(F,
                   ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"%c\","
                   "\"pid\":%d,\"tid\":1,\"ts\":%.3f",
                   E.Name->c_str(), E.Ph, Pid, (E.Ns - Origin) / 1e3);
      if (!E.Args.empty()) {
        std::fprintf(F, ",\"args\":{");
        for (size_t K = 0; K != E.Args.size(); ++K)
          std::fprintf(F, "%s\"%s\":%.3f", K ? "," : "", E.Args[K].Key,
                       E.Args[K].Value);
        std::fprintf(F, "}");
      }
      std::fprintf(F, "}");
    }
    std::fprintf(F,
                 "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
                 "\"droppedEvents\":%zu,\"highWater\":%zu,"
                 "\"ringCapacity\":%zu}}\n",
                 Dropped, Events.size(), Capacity);
    return std::fclose(F) == 0;
  }

private:
  struct Event {
    char Ph;
    const std::string *Name; ///< interned in Names
    uint64_t Ns;
    std::vector<Arg> Args;
  };
  bool Enabled = false;
  uint64_t Origin = nowNs();
  std::set<std::string> Names;
  std::vector<Event> Events;
  size_t Open = 0, Dropped = 0;
};

/// RAII span around one call into the VM. Reads the isolate's counters at
/// both boundaries (when \p I is given) and charges the GC pause and
/// compile stall that happened inside as child durations. Costs one
/// branch while the recorder is disabled.
class Span {
public:
  Span(SpanRecorder &T, const std::string &Name, Isolate *I = nullptr)
      : T(T), I(I) {
    if (!T.enabled())
      return;
    if (I)
      Before = Counters::of(*I);
    Start = nowNs();
    Opened = T.begin(Name);
  }
  ~Span() {
    if (!Opened)
      return;
    double Us = (nowNs() - Start) / 1e3;
    std::vector<SpanRecorder::Arg> Args;
    if (I) {
      Counters After = Counters::of(*I);
      double Gc = gcPauseSince(*I, Before.GcRecords) / 1e3;
      double Stall = (After.StallNs - Before.StallNs) / 1e3;
      Args = {{"gc_pause_us", Gc},
              {"compile_stall_us", Stall},
              {"self_us", Us - Gc - Stall},
              {"allocs", double(After.Allocs - Before.Allocs)},
              {"monitor_ops", double(After.MonitorOps - Before.MonitorOps)},
              {"interpreted_ops", double(After.InterpOps - Before.InterpOps)},
              {"compiled_ops", double(After.CompiledOps - Before.CompiledOps)},
              {"scavenges", double(After.Scavenges - Before.Scavenges)}};
    }
    T.end(Opened, std::move(Args));
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRecorder &T;
  Isolate *I;
  Counters Before;
  uint64_t Start = 0;
  const std::string *Opened = nullptr;
};

//===----------------------------------------------------------------------===//
// Steady workloads: pea-churn, escape-gc, flat-locks
//===----------------------------------------------------------------------===//

/// The seeded op sequence: op k calls the workload's rows in the k-th
/// permutation drawn from the seed.
class OpSequence {
public:
  OpSequence(uint64_t Seed, size_t NumRows) : Rng(Seed), Order(NumRows) {
    std::iota(Order.begin(), Order.end(), 0u);
  }
  const std::vector<unsigned> &next() {
    Rng.shuffle(Order);
    return Order;
  }

private:
  SeededRng Rng;
  std::vector<unsigned> Order;
};

/// What one setup cost, stage by stage.
struct SetupCost {
  double TotalS = 0, BuildS = 0;
  uint64_t WarmupOps = 0, InterpOps = 0, InterpCalls = 0, StallNs = 0;
};

/// One isolate built, set up and warmed until steady, ready to measure.
struct Instance {
  std::unique_ptr<BenchmarkSet> Set;
  std::unique_ptr<Isolate> Iso;
  std::vector<const BenchmarkRow *> Rows;
  std::vector<std::string> CallSpans; ///< "Isolate::call <row>", per row
  std::unique_ptr<OpSequence> Seq;
  SetupCost Cost;
};

const BenchmarkRow &findRow(const BenchmarkSet &Set, const char *Name) {
  const BenchmarkRow *R = Set.find(Name);
  if (!R)
    die("Table 1 row '%s' does not exist", Name);
  return *R;
}

std::vector<const BenchmarkRow *> rowsOf(const BenchmarkSet &Set,
                                         const WorkloadSpec &W) {
  std::vector<const BenchmarkRow *> Rows;
  if (W.Rows.empty())
    for (const BenchmarkRow &R : Set.Rows)
      Rows.push_back(&R);
  for (const char *Name : W.Rows)
    Rows.push_back(&findRow(Set, Name));
  return Rows;
}

/// Per-row reference results, indexed like Instance::Rows, from a JIT-off
/// isolate (the interpreter is the oracle) running the first ops of the
/// same seeded sequence.
using Reference = std::vector<int64_t>;

Reference computeReference(const WorkloadSpec &W, uint64_t Seed,
                           EscapeAnalysisMode EA) {
  BenchmarkSet Set = buildBenchmarkSet();
  std::vector<const BenchmarkRow *> Rows = rowsOf(Set, W);
  VMOptions O = shippedOptions(EA);
  O.EnableJit = false;
  Isolate I(Set.WP.P, O);
  I.call(Set.WP.Setup, {});
  OpSequence Seq(Seed, Rows.size());
  Reference Ref(Rows.size());
  for (unsigned Op = 0; Op != ReferenceOps; ++Op) {
    for (unsigned RowIdx : Seq.next()) {
      const BenchmarkRow &R = *Rows[RowIdx];
      int64_t V = I.call(R.Driver, {Value::makeInt(R.Scale)}).asInt();
      if (Op == 0)
        Ref[RowIdx] = V;
      else if (V != Ref[RowIdx])
        die("reference: row %s returned %" PRId64 " then %" PRId64
            " in the interpreter; its result depends on call history, so "
            "it cannot be checked per op",
            R.Name.c_str(), Ref[RowIdx], V);
    }
  }
  return Ref;
}

/// Runs one op: every row once, in the next seeded order. Returns true if
/// every result matches the reference (always true without one).
bool runSteadyOp(Instance &In, const Reference *Ref, SpanRecorder &T,
                 const std::string &SpanName) {
  Span OpSpan(T, SpanName, In.Iso.get());
  bool Ok = true;
  for (unsigned RowIdx : In.Seq->next()) {
    const BenchmarkRow &R = *In.Rows[RowIdx];
    int64_t V;
    {
      Span CallSpan(T, In.CallSpans[RowIdx], In.Iso.get());
      V = In.Iso->call(R.Driver, {Value::makeInt(R.Scale)}).asInt();
    }
    if (Ref && V != (*Ref)[RowIdx])
      Ok = false;
  }
  return Ok;
}

const std::string WarmupOpSpan = "warmup-op", OpSpan = "op";

/// Warms until QuietOps consecutive ops install, invalidate and deopt
/// nothing (and at least \p MinOps ran). Returns the ops run; warmup
/// mismatches against the reference are added to \p Failed.
uint64_t warmUntilQuiet(Instance &In, const Reference *Ref, SpanRecorder &T,
                        unsigned MinOps, uint64_t &Failed) {
  unsigned Quiet = 0;
  uint64_t Ops = 0;
  while (Ops < MinOps || Quiet < QuietOps) {
    if (Ops == MaxWarmupOps)
      die("warmup: still compiling after %u ops; no steady state",
          MaxWarmupOps);
    Counters Before = Counters::of(*In.Iso);
    if (!runSteadyOp(In, Ref, T, WarmupOpSpan))
      ++Failed;
    Counters After = Counters::of(*In.Iso);
    bool Changed = After.Compilations != Before.Compilations ||
                   After.Invalidations != Before.Invalidations ||
                   After.Deopts != Before.Deopts;
    Quiet = Changed ? 0 : Quiet + 1;
    ++Ops;
  }
  return Ops;
}

/// Builds the program, constructs the isolate, runs Setup, and warms until
/// steady. Row drivers are entered once per op, so on their own they would
/// cross the compile threshold only after 500 ops, inside the measured
/// window; once the kernels they call are warm, the drivers are compiled
/// with Isolate::compileNow so the window starts in the state a long-running
/// client reaches.
std::unique_ptr<Instance> setUp(const WorkloadSpec &W, uint64_t Seed,
                                EscapeAnalysisMode EA, const Reference *Ref,
                                SpanRecorder &T, uint64_t &Failed) {
  Span Whole(T, "setup");
  uint64_t T0 = nowNs();
  auto In = std::make_unique<Instance>();
  {
    Span S(T, "buildBenchmarkSet");
    In->Set = std::make_unique<BenchmarkSet>(buildBenchmarkSet());
  }
  In->Cost.BuildS = (nowNs() - T0) / 1e9;
  In->Rows = rowsOf(*In->Set, W);
  for (const BenchmarkRow *R : In->Rows)
    In->CallSpans.push_back("Isolate::call " + R->Name);
  {
    Span S(T, "Isolate construction");
    In->Iso = std::make_unique<Isolate>(In->Set->WP.P, shippedOptions(EA));
  }
  {
    Span S(T, "Isolate::call Setup", In->Iso.get());
    In->Iso->call(In->Set->WP.Setup, {});
  }
  In->Seq = std::make_unique<OpSequence>(Seed, In->Rows.size());
  In->Cost.WarmupOps = warmUntilQuiet(*In, Ref, T, MinWarmupOps, Failed);
  if (!W.Rows.empty()) {
    {
      Span S(T, "compileNow row drivers", In->Iso.get());
      for (unsigned RowIdx : In->Seq->next())
        In->Iso->compileNow(In->Rows[RowIdx]->Driver);
    }
    In->Cost.WarmupOps += warmUntilQuiet(*In, Ref, T, QuietOps, Failed);
  }
  {
    Span S(T, "waitForCompilerIdle", In->Iso.get());
    In->Iso->waitForCompilerIdle();
  }
  In->Cost.TotalS = (nowNs() - T0) / 1e9;
  const RuntimeMetrics &RM = In->Iso->runtime().metrics();
  In->Cost.InterpOps = RM.InterpretedOps;
  In->Cost.InterpCalls = RM.InterpretedCalls;
  In->Cost.StallNs = In->Iso->jitMetrics().MutatorStallNanos;
  return In;
}

//===----------------------------------------------------------------------===//
// The measured window
//===----------------------------------------------------------------------===//

/// Alternating traced/untraced blocks in a --trace 1 run; their ops/s
/// difference is the tracing overhead.
constexpr double TraceBlockS = 0.25;

/// Everything measured in the windows of all segments.
struct Window {
  std::vector<double> LatUs; ///< every op, pooled over segments
  std::vector<double> SegOpsPerS, SegP50Us;
  double Seconds = 0;
  uint64_t Failed = 0;
  Counters Delta;                 ///< counter deltas summed over segments
  std::vector<double> GcPausesUs; ///< every collection inside a window
  /// --trace 1 only: ops and seconds in traced / untraced blocks, and the
  /// mutator time of traced ops (op minus GC pause minus compile stall).
  uint64_t TracedOps = 0, UntracedOps = 0;
  double TracedS = 0, UntracedS = 0, MutatorUs = 0;

  double traceOverheadPct() const {
    if (!TracedS || !UntracedS || !UntracedOps)
      return 0;
    double Untraced = UntracedOps / UntracedS, Traced = TracedOps / TracedS;
    return (Untraced - Traced) / Untraced * 100;
  }
};

/// Closed loop on \p I for \p Seconds: \p RunOp runs one op and returns
/// whether it was correct. With tracing, blocks of TraceBlockS alternate
/// between traced and untraced.
template <typename OpFn>
void measureSegment(Window &W, double Seconds, SpanRecorder &T, bool Trace,
                    Isolate &I, OpFn RunOp) {
  Counters Start = Counters::of(I);
  std::vector<double> Lat;
  Lat.reserve(1 << 16);
  uint64_t Begin = nowNs();
  uint64_t Deadline = Begin + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t BlockStart = Begin, Now = Begin;
  bool Traced = Trace;
  T.setEnabled(Traced);
  while (Now < Deadline) {
    Counters Before;
    if (Traced)
      Before = Counters::of(I);
    uint64_t OpStart = nowNs();
    if (!RunOp())
      ++W.Failed;
    Now = nowNs();
    double Us = (Now - OpStart) / 1e3;
    Lat.push_back(Us);
    if (!Trace)
      continue;
    if (Traced) {
      ++W.TracedOps;
      double ChildNs = gcPauseSince(I, Before.GcRecords) +
                       (Counters::of(I).StallNs - Before.StallNs);
      W.MutatorUs += Us - ChildNs / 1e3;
    } else {
      ++W.UntracedOps;
    }
    if ((Now - BlockStart) / 1e9 >= TraceBlockS || Now >= Deadline) {
      (Traced ? W.TracedS : W.UntracedS) += (Now - BlockStart) / 1e9;
      BlockStart = Now;
      Traced = !Traced;
      T.setEnabled(Traced);
    }
  }
  T.setEnabled(Trace);
  double SegS = (Now - Begin) / 1e9;
  W.Seconds += SegS;
  W.Delta += Counters::of(I) - Start;
  const auto &Log = I.runtime().heap().gcRecords();
  for (size_t K = Start.GcRecords; K < Log.size(); ++K)
    W.GcPausesUs.push_back(Log[K].PauseNanos / 1e3);
  W.SegOpsPerS.push_back(Lat.size() / SegS);
  std::sort(Lat.begin(), Lat.end());
  W.SegP50Us.push_back(percentile(Lat, 0.50));
  W.LatUs.insert(W.LatUs.end(), Lat.begin(), Lat.end());
}

//===----------------------------------------------------------------------===//
// jit-compile: the compiler, ir, pea-phase and native-emit layers
//===----------------------------------------------------------------------===//

/// What the first compile of a method in this run produced. Later compiles
/// of it, in any segment, must match.
struct FirstCompile {
  uint32_t NodesBuilt = 0, NodesFinal = 0;
  size_t CodeBytes = 0;
  uint64_t FixpointCapHits = 0;
  PEAStats Escape;
};

/// Compile work summed over every segment's window.
struct CompileTotals {
  std::map<MethodId, FirstCompile> First;
  std::vector<MethodId> HotSet; ///< sorted; the same in every segment
  PhaseTimes Phases;
  uint64_t Compiles = 0, EmitNs = 0;
};

/// One segment's compile ops: the hot methods of its warmed isolate, each
/// with the profile snapshot every compile of it reads.
struct CompileOps {
  const Program *P = nullptr;
  CompilerOptions Options;
  PhasePlan Plan;
  uint32_t IsolateId = 0;
  std::vector<std::pair<MethodId, ProfileSnapshot>> Hot; ///< seeded order
  size_t Next = 0;
};

/// The hot set is every method the warmed isolate installed code for,
/// ordered by the seed.
void prepareCompileOps(CompileOps &C, Isolate &I, const Program &P,
                       uint64_t Seed) {
  std::vector<MethodId> Methods;
  for (unsigned M = 0; M != P.numMethods(); ++M)
    if (I.compiledGraph(M))
      Methods.push_back(M);
  if (Methods.empty())
    die("jit-compile: the warmed isolate installed no code");
  SeededRng Rng(Seed);
  Rng.shuffle(Methods);
  C.P = &P;
  C.Options = I.options().Compiler;
  C.Plan = makeDefaultPhasePlan(C.Options);
  C.IsolateId = I.id();
  for (MethodId M : Methods)
    C.Hot.emplace_back(M, ProfileSnapshot(I.profiles(), P, M));
}

std::vector<MethodId> sortedHotSet(const CompileOps &C) {
  std::vector<MethodId> Set;
  for (const auto &H : C.Hot)
    Set.push_back(H.first);
  std::sort(Set.begin(), Set.end());
  return Set;
}

/// Names the methods only one of two sorted hot sets holds: "+m" for those
/// new in \p Now, "-m" for those missing from it.
std::string hotSetDiff(const Program &P, const std::vector<MethodId> &Was,
                       const std::vector<MethodId> &Now) {
  std::vector<MethodId> Added, Dropped;
  std::set_difference(Now.begin(), Now.end(), Was.begin(), Was.end(),
                      std::back_inserter(Added));
  std::set_difference(Was.begin(), Was.end(), Now.begin(), Now.end(),
                      std::back_inserter(Dropped));
  std::string Out;
  for (auto [Sign, List] : {std::pair{'+', &Added}, std::pair{'-', &Dropped}})
    for (MethodId M : *List)
      Out += (Out.empty() ? "" : " ") + std::string(1, Sign) +
             P.methodAt(M).Name;
  return Out;
}

const std::string PipelineSpan = "runCompilePipeline",
                  EmitSpan = "emitNativeCode";

/// One op: compile the next hot method and emit its machine code. Fails if
/// the pipeline produced no linear code, emission fell back to linear, or
/// the final node count or code size differs from this method's first
/// compile in the run.
bool runCompileOp(CompileOps &C, CompileTotals &Tot, SpanRecorder &T) {
  const auto &[Method, Snap] = C.Hot[C.Next];
  C.Next = (C.Next + 1) % C.Hot.size();
  Span OpS(T, OpSpan);
  CompileResult R;
  {
    Span S(T, PipelineSpan);
    R = runCompilePipeline(C.Plan, *C.P, Method, Snap, C.Options,
                           C.IsolateId);
  }
  Tot.Phases += R.Phases;
  ++Tot.Compiles;
  if (!R.Code)
    return false;
  std::unique_ptr<NativeCode> Native;
  {
    Span S(T, EmitSpan);
    uint64_t Start = nowNs();
    Native = emitNativeCode(*R.Code, CodeCache::process());
    Tot.EmitNs += nowNs() - Start;
  }
  if (!Native)
    return false;
  uint32_t Final = R.G->numLiveNodes();
  auto [It, New] = Tot.First.try_emplace(Method);
  FirstCompile &F = It->second;
  if (!New)
    return Final == F.NodesFinal && Native->codeSize() == F.CodeBytes;
  F.NodesFinal = Final;
  F.CodeBytes = Native->codeSize();
  for (const PhaseTrailEntry &E : R.Trail)
    if (std::strcmp(E.Name, "build") == 0) {
      F.NodesBuilt = E.NodesAfter;
      break;
    }
  F.FixpointCapHits = R.FixpointCapHits;
  F.Escape = R.Stats;
  return true;
}

//===----------------------------------------------------------------------===//
// Metrics output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

class MetricSet {
public:
  void add(std::string Name, double Value, std::string Unit) {
    All.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void print() const {
    std::printf("metrics:\n");
    for (const Metric &M : All)
      std::printf("  %-30s %20.6f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }
  /// The last line of stdout: exactly the metrics named in \p Names.
  void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<std::string> &Names) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                Correct ? "true" : "false", Attempted, Failed);
    const char *Sep = "";
    for (const std::string &N : Names) {
      auto It = std::find_if(All.begin(), All.end(),
                             [&](const Metric &M) { return M.Name == N; });
      if (It == All.end())
        die("internal: metric %s was not computed", N.c_str());
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
                  It->Name.c_str(), It->Value, It->Unit.c_str());
      Sep = ", ";
    }
    std::printf("}}\n");
  }

private:
  std::vector<Metric> All;
};

/// The end-to-end metrics of the --trace 0 JSON line. allocs_per_op,
/// alloc_bytes_per_op, monitor_ops_per_op and error_rate are 0 on some
/// workload, so they are printed in the table and reported with the
/// per-layer metrics of the --trace 1 line instead.
const std::vector<std::string> EndToEndNames = {
    "ops_per_s", "op_p50_us",         "op_p99_us",
    "setup_s",   "native_code_bytes", "peak_rss_mb"};

const std::vector<std::string> PerLayerNames = {
    "allocs_per_op",
    "alloc_bytes_per_op",
    "monitor_ops_per_op",
    "error_rate",
    "bytecode.build_s",
    "interp.ops_setup",
    "interp.calls_setup",
    "interp.ops_per_op",
    "vm.mutator_us_per_op",
    "vm.compiled_ops_per_op",
    "vm.compiled_calls_per_op",
    "vm.interpreted_calls_per_op",
    "vm.deopts_per_op",
    "vm.compiles_in_window",
    "vm.invalidations_in_window",
    "vm.compile_stall_s",
    "compiler.build_us",
    "compiler.canon_us",
    "compiler.inline_us",
    "compiler.gvn_us",
    "compiler.dce_us",
    "compiler.verify_us",
    "compiler.schedule_us",
    "compiler.emit_us",
    "compiler.fixpoint_cap_hits",
    "ir.nodes_built",
    "ir.nodes_final",
    "pea.escape_us",
    "pea.loop_iterations",
    "pea.virtualized_allocations",
    "pea.materialize_sites",
    "pea.scalar_replaced_loads",
    "pea.scalar_replaced_stores",
    "pea.folded_checks",
    "pea.virtualized_states",
    "pea.elided_monitor_ops",
    "jit.emit_us",
    "jit.native_methods",
    "jit.native_fallbacks",
    "memory.gc_pause_us_per_op",
    "memory.gc_pause_us_p50",
    "memory.gc_pause_us_p99",
    "memory.scavenges_per_op",
    "memory.full_gcs",
    "memory.bytes_copied_per_op",
    "memory.bytes_promoted_per_op",
    "memory.cards_dirtied_per_op",
    "memory.cards_scanned_per_op",
    "bench.trace_overhead_pct",
};

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // KiB on Linux
}

void addPea(MetricSet &M, const PEAStats &S) {
  M.add("pea.loop_iterations", S.LoopIterations, "count");
  M.add("pea.virtualized_allocations", S.VirtualizedAllocations, "count");
  M.add("pea.materialize_sites", S.MaterializeSites, "count");
  M.add("pea.scalar_replaced_loads", S.ScalarReplacedLoads, "count");
  M.add("pea.scalar_replaced_stores", S.ScalarReplacedStores, "count");
  M.add("pea.folded_checks", S.FoldedChecks, "count");
  M.add("pea.virtualized_states", S.VirtualizedStates, "count");
  M.add("pea.elided_monitor_ops", S.ElidedMonitorOps, "count");
}

/// Per-compile microseconds of each compiler phase, from \p Times summed
/// over \p Compiles pipeline runs.
void addPhaseTimes(MetricSet &M, const PhaseTimes &Times, uint64_t Compiles) {
  auto PerCompile = [&](const char *Phase) {
    return Compiles ? Times.nanosFor(Phase) / 1e3 / Compiles : 0.0;
  };
  for (const char *Phase :
       {"build", "canon", "inline", "gvn", "dce", "verify", "schedule", "emit"})
    M.add(std::string("compiler.") + Phase + "_us", PerCompile(Phase), "us");
  M.add("pea.escape_us", PerCompile("escape-partial"), "us");
}

/// Setup metrics: medians over the segments' setups, except the counts,
/// which are the same in every segment.
void addSetup(MetricSet &M, const std::vector<SetupCost> &Costs) {
  std::vector<double> Total, Build, Stall;
  for (const SetupCost &C : Costs) {
    Total.push_back(C.TotalS);
    Build.push_back(C.BuildS);
    Stall.push_back(C.StallNs / 1e9);
  }
  const SetupCost &Last = Costs.back();
  M.add("setup_s", median(Total), "s");
  M.add("bytecode.build_s", median(Build), "s");
  M.add("vm.compile_stall_s", median(Stall), "s");
  M.add("interp.ops_setup", Last.InterpOps, "count");
  M.add("interp.calls_setup", Last.InterpCalls, "count");
  std::printf("setup: %zu isolates, median %.4f s, %" PRIu64
              " warmup ops each\n",
              Costs.size(), median(Total), Last.WarmupOps);
}

void addWindow(MetricSet &M, const Window &W) {
  std::vector<double> Lat = W.LatUs;
  std::sort(Lat.begin(), Lat.end());
  size_t Beyond = 0;
  M.add("ops_per_s", median(W.SegOpsPerS), "ops/s");
  M.add("op_p50_us", median(W.SegP50Us), "us");
  M.add("op_p99_us", percentile(Lat, 0.99, &Beyond), "us");
  std::printf("window: %zu ops in %.3f s over %zu segments; p99 has %zu "
              "samples beyond it\nsegment ops/s:",
              Lat.size(), W.Seconds, W.SegOpsPerS.size(), Beyond);
  for (double V : W.SegOpsPerS)
    std::printf(" %.3f", V);
  std::printf("\n");

  double Ops = Lat.size();
  const Counters &D = W.Delta;
  auto PerOp = [&](double V) { return Ops ? V / Ops : 0.0; };
  M.add("error_rate", PerOp(W.Failed), "ratio");
  M.add("allocs_per_op", PerOp(D.Allocs), "allocs");
  M.add("alloc_bytes_per_op", PerOp(D.AllocBytes), "bytes");
  M.add("monitor_ops_per_op", PerOp(D.MonitorOps), "ops");
  M.add("interp.ops_per_op", PerOp(D.InterpOps), "ops");
  M.add("vm.compiled_ops_per_op", PerOp(D.CompiledOps), "ops");
  M.add("vm.compiled_calls_per_op", PerOp(D.CompiledCalls), "calls");
  M.add("vm.interpreted_calls_per_op", PerOp(D.InterpCalls), "calls");
  M.add("vm.deopts_per_op", PerOp(D.Deopts), "deopts");
  M.add("vm.compiles_in_window", D.Compilations, "count");
  M.add("vm.invalidations_in_window", D.Invalidations, "count");
  M.add("vm.mutator_us_per_op",
        W.TracedOps ? W.MutatorUs / W.TracedOps : 0, "us");

  std::vector<double> Pauses = W.GcPausesUs;
  std::sort(Pauses.begin(), Pauses.end());
  M.add("memory.gc_pause_us_per_op",
        PerOp(std::accumulate(Pauses.begin(), Pauses.end(), 0.0)), "us");
  M.add("memory.gc_pause_us_p50", percentile(Pauses, 0.50), "us");
  M.add("memory.gc_pause_us_p99", percentile(Pauses, 0.99), "us");
  M.add("memory.scavenges_per_op", PerOp(D.Scavenges), "count");
  M.add("memory.full_gcs", D.FullGcs, "count");
  M.add("memory.bytes_copied_per_op", PerOp(D.BytesCopied), "bytes");
  M.add("memory.bytes_promoted_per_op", PerOp(D.BytesPromoted), "bytes");
  M.add("memory.cards_dirtied_per_op", PerOp(D.CardsDirtied), "count");
  M.add("memory.cards_scanned_per_op", PerOp(D.CardsScanned), "count");
  M.add("bench.trace_overhead_pct", W.traceOverheadPct(), "%");
}

/// Compile-side metrics of a steady workload: what setup compiled into the
/// measured isolate.
void addInstalledCode(MetricSet &M, Isolate &I, const Program &P) {
  const JitMetrics &J = I.jitMetrics();
  uint64_t Bytes = 0, Built = 0, Final = 0;
  for (unsigned Method = 0; Method != P.numMethods(); ++Method) {
    if (const NativeCode *N = I.compiledNative(Method))
      Bytes += N->codeSize();
    for (const CompileLog::Record &R : I.compileLog().recordsFor(Method)) {
      Final += R.FinalNodes;
      for (const CompileLog::PhaseRec &Ph : R.Phases)
        if (Ph.Name == "build") {
          Built += Ph.NodesAfter;
          break;
        }
    }
  }
  M.add("native_code_bytes", Bytes, "bytes");
  M.add("ir.nodes_built", Built, "nodes");
  M.add("ir.nodes_final", Final, "nodes");
  M.add("compiler.fixpoint_cap_hits", J.FixpointCapHits, "count");
  addPea(M, J.EscapeStats);
  addPhaseTimes(M, J.PhaseNanos, J.Compilations);
  M.add("jit.emit_us",
        J.NativeMethods ? J.NativeEmitNanos / 1e3 / J.NativeMethods : 0, "us");
  M.add("jit.native_methods", J.NativeMethods, "count");
  M.add("jit.native_fallbacks", J.NativeFallbacks, "count");
}

/// jit-compile's compile-side metrics. Counts are per round (every hot
/// method compiled once), so they are exact and the same on every seed;
/// times are per compile.
void addCompileRound(MetricSet &M, const CompileTotals &Tot) {
  if (Tot.First.size() != Tot.HotSet.size())
    die("jit-compile: window too short to compile every hot method once");
  uint64_t Built = 0, Final = 0, Bytes = 0, CapHits = 0;
  PEAStats Escape;
  for (const auto &[Method, F] : Tot.First) {
    Built += F.NodesBuilt;
    Final += F.NodesFinal;
    Bytes += F.CodeBytes;
    CapHits += F.FixpointCapHits;
    Escape += F.Escape;
  }
  M.add("native_code_bytes", Bytes, "bytes");
  M.add("ir.nodes_built", Built, "nodes");
  M.add("ir.nodes_final", Final, "nodes");
  M.add("compiler.fixpoint_cap_hits", CapHits, "count");
  addPea(M, Escape);
  addPhaseTimes(M, Tot.Phases, Tot.Compiles);
  M.add("jit.emit_us", Tot.Compiles ? Tot.EmitNs / 1e3 / Tot.Compiles : 0,
        "us");
  M.add("jit.native_methods", Tot.HotSet.size(), "count");
  M.add("jit.native_fallbacks", 0, "count"); // a fallback fails the op
  std::printf("jit-compile: %zu hot methods per round\n", Tot.HotSet.size());
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Args {
  const WorkloadSpec *Workload = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string TraceOut;
  EscapeAnalysisMode EA = EscapeAnalysisMode::Partial;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int K = 1; K < Argc; ++K) {
    std::string Flag = Argv[K];
    if (K + 1 == Argc)
      die("%s needs a value", Flag.c_str());
    const char *V = Argv[++K];
    char *End = nullptr;
    if (Flag == "--workload") {
      for (const WorkloadSpec &W : Workloads)
        if (std::strcmp(W.Name, V) == 0)
          A.Workload = &W;
      if (!A.Workload)
        die("unknown workload '%s' (pea-churn, escape-gc, flat-locks, "
            "jit-compile)",
            V);
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && !*End;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      HaveSeconds = *V && !*End && A.Seconds > 0 && A.Seconds <= 3600;
    } else if (Flag == "--trace") {
      HaveTrace = !std::strcmp(V, "0") || !std::strcmp(V, "1");
      A.Trace = !std::strcmp(V, "1");
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else if (Flag == "--ea") {
      if (!std::strcmp(V, "none"))
        A.EA = EscapeAnalysisMode::None;
      else if (std::strcmp(V, "partial"))
        die("--ea must be none or partial");
    } else {
      die("unknown flag %s", Flag.c_str());
    }
  }
  if (!A.Workload || !HaveSeed || !HaveSeconds || !HaveTrace)
    die("usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-out <file>] [--ea none|partial]\n"
        "  (--trace-out is required with --trace 1)");
  if (A.Trace && A.TraceOut.empty())
    die("--trace 1 needs --trace-out <file>");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  refuseContaminatedEnvironment();
  Args A = parseArgs(Argc, Argv);
  if (!nativeBackendSupported())
    die("the native backend is not available on this host or build; "
        "refusing to measure the linear tier in its place");
  const WorkloadSpec &W = *A.Workload;
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d ea=%s\n",
              W.Name, A.Seed, A.Seconds, A.Trace ? 1 : 0,
              escapeAnalysisModeName(A.EA));

  SpanRecorder T;
  T.setEnabled(A.Trace);
  MetricSet M;
  Window Win;
  std::vector<SetupCost> Costs;
  uint64_t WarmupFailed = 0;
  const double SegmentS = A.Seconds / Segments;
  if (!W.Rows.empty()) {
    Reference Ref;
    {
      Span S(T, "reference (JIT off)");
      Ref = computeReference(W, A.Seed, A.EA);
    }
    for (unsigned Seg = 0; Seg != Segments; ++Seg) {
      std::unique_ptr<Instance> In =
          setUp(W, A.Seed, A.EA, &Ref, T, WarmupFailed);
      Costs.push_back(In->Cost);
      measureSegment(Win, SegmentS, T, A.Trace, *In->Iso,
                     [&] { return runSteadyOp(*In, &Ref, T, OpSpan); });
      if (Seg + 1 == Segments)
        addInstalledCode(M, *In->Iso, In->Set->WP.P);
    }
  } else {
    CompileTotals Tot;
    for (unsigned Seg = 0; Seg != Segments; ++Seg) {
      std::unique_ptr<Instance> In =
          setUp(W, A.Seed, A.EA, nullptr, T, WarmupFailed);
      Costs.push_back(In->Cost);
      CompileOps C;
      prepareCompileOps(C, *In->Iso, In->Set->WP.P, A.Seed);
      std::vector<MethodId> HotSet = sortedHotSet(C);
      if (Seg && HotSet != Tot.HotSet)
        die("jit-compile: hot set differs between isolates (%s)",
            hotSetDiff(*C.P, Tot.HotSet, HotSet).c_str());
      Tot.HotSet = std::move(HotSet);
      measureSegment(Win, SegmentS, T, A.Trace, *In->Iso,
                     [&] { return runCompileOp(C, Tot, T); });
    }
    addCompileRound(M, Tot);
  }
  T.setEnabled(false);

  addSetup(M, Costs);
  addWindow(M, Win);
  M.add("peak_rss_mb", peakRssMb(), "MB");
  M.print();
  if (WarmupFailed)
    std::printf("warmup: %" PRIu64 " ops disagreed with the reference\n",
                WarmupFailed);
  if (A.Trace) {
    if (!T.writeJson(A.TraceOut))
      die("cannot write trace %s", A.TraceOut.c_str());
    std::printf("trace: %s (traced %" PRIu64 " ops in %.3f s, untraced %" PRIu64
                " ops in %.3f s)\n",
                A.TraceOut.c_str(), Win.TracedOps, Win.TracedS,
                Win.UntracedOps, Win.UntracedS);
  }
  uint64_t Attempted = Win.LatUs.size();
  bool Correct = Attempted && !Win.Failed && !WarmupFailed;
  M.printJson(Correct, Attempted, Win.Failed,
              A.Trace ? PerLayerNames : EndToEndNames);
  return Correct ? 0 : 1;
}
