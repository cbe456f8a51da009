/**
 * @file
 * Link-time layer timers (socflow_bench_traced only).
 *
 * The traced binary is linked with `-Wl,--wrap=<symbol>` for every row
 * of layer_table.def, so each call into a wrapped entry point that
 * crosses an object file reaches `wrap_<id>` below, which times the
 * call and forwards it to `real_<id>` (the original definition).
 *
 * Accounting is per thread: every thread owns its accumulators and a
 * stack of open calls, so group steps on pool workers need no locking
 * and a call's self time is its duration minus the wrapped calls it
 * made on the same thread. Self times are therefore thread-seconds.
 *
 * runEpoch is virtual and the harvest scheduler calls it through the
 * vtable, which --wrap cannot intercept. Its host span is used
 * instead: the trainer opens a "runEpoch" span (and the harvest scheduler
 * a "harvest slot" span) through obs::Tracer::beginSpan, which is
 * wrapped, and closes it through Tracer::endSpan.
 *
 * The wrapper declarations rely on the Itanium C++ ABI: a non-static
 * member function is called exactly like a free function whose first
 * parameter is `this` (after any hidden return-slot pointer).
 */

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/replicated_store.hh"
#include "collectives/engine.hh"
#include "core/comm_plan.hh"
#include "core/mixed_precision.hh"
#include "core/socflow_trainer.hh"
#include "data/dataset.hh"
#include "fault/fault.hh"
#include "layers.hh"
#include "membership/membership.hh"
#include "nn/model.hh"
#include "nn/sgd.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "quant/int8_trainer.hh"
#include "sim/flow_network.hh"
#include "tensor/conv.hh"
#include "tensor/ops.hh"
#include "util/thread_pool.hh"

namespace socflow_bench {
namespace layers {
namespace {

enum Id : std::size_t {
#define LAYER_ENTRY(id, sym, layer, on) id,
#include "layer_table.def"
#undef LAYER_ENTRY
    kRunEpochSpan,
    kHarvestSlotSpan,
    kNumIds
};

struct Meta {
    const char *id;
    const char *layer;
    unsigned expectedOn;
};

constexpr Meta kMeta[kNumIds] = {
#define LAYER_ENTRY(id, sym, layer, on) {#id, layer, on},
#include "layer_table.def"
#undef LAYER_ENTRY
    {"run_epoch_span", "core.epoch", kAll},
    {"harvest_slot_span", "trace.harvest", kHarvestDays},
};

using Clock = std::chrono::steady_clock;

struct Acc {
    std::uint64_t calls = 0;
    std::uint64_t replayCalls = 0;
    double seconds = 0.0;
    double selfSeconds = 0.0;
    double amount = 0.0;
    double replaySeconds = 0.0;
};

struct Frame {
    Id id;
    bool replay;
    Clock::time_point start;
    double childSeconds;
};

/** No tracked frame for this tracer span. */
constexpr std::size_t kUntracked = kNumIds;

struct ThreadState {
    std::array<Acc, kNumIds> acc{};
    std::vector<Frame> stack;
    /** One element per open tracer span: its Id or kUntracked. */
    std::vector<std::size_t> spans;
    std::vector<double> epochSeconds;
    double topSeconds = 0.0;
};

std::atomic<bool> gEnabled{true};
std::mutex gMu;
/** Every thread's state, owned here so a worker that exits (pool
 *  resize) leaves its totals readable. Guarded by gMu. */
std::vector<std::unique_ptr<ThreadState>> gThreads;
/** The thread that last called reset(). Guarded by gMu. */
const ThreadState *gMain = nullptr;

ThreadState &
state()
{
    thread_local ThreadState *ts = [] {
        auto owned = std::make_unique<ThreadState>();
        ThreadState *raw = owned.get();
        std::lock_guard<std::mutex> lock(gMu);
        gThreads.push_back(std::move(owned));
        return raw;
    }();
    return *ts;
}

void
push(ThreadState &ts, Id id, bool replay)
{
    ts.stack.push_back(Frame{id, replay, Clock::now(), 0.0});
}

void
pop(ThreadState &ts)
{
    const Frame f = ts.stack.back();
    ts.stack.pop_back();
    const double el =
        std::chrono::duration<double>(Clock::now() - f.start).count();
    Acc &a = ts.acc[f.id];
    ++a.calls;
    a.seconds += el;
    a.selfSeconds += el - f.childSeconds;
    if (f.replay) {
        ++a.replayCalls;
        a.replaySeconds += el;
    }
    if (f.id == kRunEpochSpan)
        ts.epochSeconds.push_back(el);
    if (ts.stack.empty())
        ts.topSeconds += el;
    else
        ts.stack.back().childSeconds += el;
}

/** Times one wrapped call for the lifetime of the object. */
class Scope
{
  public:
    explicit Scope(Id id, bool replay = false)
        : ts(gEnabled.load(std::memory_order_relaxed) ? &state()
                                                      : nullptr),
          id(id)
    {
        if (ts)
            push(*ts, id, replay);
    }

    ~Scope()
    {
        if (ts)
            pop(*ts);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Add to the entry's amount (flows, bytes, acked writes). */
    void
    amount(double v)
    {
        if (ts)
            ts->acc[id].amount += v;
    }

  private:
    ThreadState *ts;
    Id id;
};

void
spanOpened(std::string_view name)
{
    if (!gEnabled.load(std::memory_order_relaxed))
        return;
    ThreadState &ts = state();
    ++ts.acc[span_begin].calls;
    std::size_t tracked = kUntracked;
    if (name == "runEpoch")
        tracked = kRunEpochSpan;
    else if (name == "harvest slot")
        tracked = kHarvestSlotSpan;
    ts.spans.push_back(tracked);
    if (tracked != kUntracked)
        push(ts, static_cast<Id>(tracked), false);
}

void
spanClosing()
{
    if (!gEnabled.load(std::memory_order_relaxed))
        return;
    ThreadState &ts = state();
    ++ts.acc[span_end].calls;
    if (ts.spans.empty())
        return;
    const std::size_t tracked = ts.spans.back();
    ts.spans.pop_back();
    if (tracked != kUntracked)
        pop(ts);
}

} // namespace

bool
available()
{
    return true;
}

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

double
callCost()
{
    // Open and close the scope of an entry whose totals the unit's
    // reset() clears; the wrapper's own call adds a few ns more.
    constexpr int kCalls = 1 << 17;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i)
        Scope s(span_begin);
    return std::chrono::duration<double>(Clock::now() - t0).count() /
           kCalls;
}

void
reset()
{
    ThreadState *caller = &state();
    std::lock_guard<std::mutex> lock(gMu);
    gMain = caller;
    for (auto &ts : gThreads) {
        ts->acc = {};
        ts->epochSeconds.clear();
        ts->topSeconds = 0.0;
    }
}

Totals
collect()
{
    Totals t;
    if (!gEnabled.load(std::memory_order_relaxed))
        return t;
    t.entries.resize(kNumIds);
    for (std::size_t i = 0; i < kNumIds; ++i) {
        t.entries[i].id = kMeta[i].id;
        t.entries[i].layer = kMeta[i].layer;
        t.entries[i].expectedOn = kMeta[i].expectedOn;
    }
    std::lock_guard<std::mutex> lock(gMu);
    for (const auto &ts : gThreads) {
        for (std::size_t i = 0; i < kNumIds; ++i) {
            const Acc &a = ts->acc[i];
            Entry &e = t.entries[i];
            e.calls += a.calls;
            e.seconds += a.seconds;
            e.selfSeconds += a.selfSeconds;
            e.amount += a.amount;
            e.replayCalls += a.replayCalls;
            e.replaySeconds += a.replaySeconds;
        }
        t.epochSeconds.insert(t.epochSeconds.end(),
                              ts->epochSeconds.begin(),
                              ts->epochSeconds.end());
        if (ts.get() == gMain)
            t.mainTopSeconds += ts->topSeconds;
        else
            t.otherTopSeconds += ts->topSeconds;
    }
    return t;
}

} // namespace layers

// --- the wrappers -------------------------------------------------------
//
// `Sig_<id>` is the exact type of the wrapped function, with `this` as
// an explicit first parameter for member functions. The table expands
// into one `real_<id>` (the original) and one `wrap_<id>` declaration
// per row, bound to the linker's __real_/__wrap_ names.

namespace wrapped {

using namespace socflow;
using layers::Scope;
using SocIds = std::vector<sim::SocId>;
using collectives::CollectiveEngine;
using collectives::CommStats;
using collectives::SyncOutcome;
using tensor::ConvGeom;
using tensor::Tensor;

using Sig_span_begin = void(obs::Tracer *, std::string_view,
                            std::string_view, int);
using Sig_span_end = void(obs::Tracer *);
using Sig_set_active_groups = void(core::SoCFlowTrainer *, std::size_t);
using Sig_save_checkpoint =
    std::vector<std::uint8_t>(const core::SoCFlowTrainer *);
using Sig_plan_sync = core::SyncSchedule(const CollectiveEngine &,
                                         const core::Mapping &,
                                         const core::CommPlan &, double);
using Sig_mp_merge = void(const core::MixedPrecisionController *,
                          const std::vector<float> &,
                          const std::vector<float> &,
                          std::vector<float> &);
using Sig_mp_alpha = void(core::MixedPrecisionController *,
                          const Tensor &, const Tensor &);
using Sig_model_train_step = nn::StepResult(nn::Model *, const Tensor &,
                                            const std::vector<int> &);
using Sig_model_evaluate = Sig_model_train_step;
using Sig_sgd_step = void(nn::Sgd *);
using Sig_int8_train_step = nn::StepResult(quant::Int8Trainer *,
                                           const Tensor &,
                                           const std::vector<int> &);
using Sig_conv_forward = void(const Tensor &, const Tensor &,
                              const ConvGeom &, Tensor &);
using Sig_conv_backward = void(const Tensor &, const Tensor &,
                               const ConvGeom &, const Tensor &,
                               Tensor *, Tensor &);
using Sig_gemm = void(const Tensor &, bool, const Tensor &, bool,
                      Tensor &, float);
using Sig_flow_makespan =
    double(const sim::FlowNetwork *, const std::vector<sim::FlowSpec> &);
using Sig_flow_simulate = std::vector<sim::FlowResult>(
    const sim::FlowNetwork *, const std::vector<sim::FlowSpec> &);
using Sig_ring_all_reduce = CommStats(const CollectiveEngine *,
                                      const SocIds &, double);
using Sig_concurrent_rings = CommStats(const CollectiveEngine *,
                                       const std::vector<SocIds> &,
                                       double);
using Sig_hierarchical_all_reduce = Sig_ring_all_reduce;
using Sig_broadcast = CommStats(const CollectiveEngine *, sim::SocId,
                                const SocIds &, double);
using Sig_ring_resilient = SyncOutcome(const CollectiveEngine *,
                                       const SocIds &, double,
                                       const SocIds *);
using Sig_ring_resume = SyncOutcome(const CollectiveEngine *,
                                    const SocIds &, double, std::size_t,
                                    const SocIds *);
using Sig_ring_checked = SyncOutcome(const CollectiveEngine *,
                                     const SocIds &, double, std::size_t);
using Sig_ring_fenced = SyncOutcome(const CollectiveEngine *,
                                    const SocIds &, double,
                                    const std::vector<std::uint64_t> &,
                                    std::uint64_t);
using Sig_fault_advance = std::vector<fault::FaultSpec>(
    fault::FaultInjector *, const fault::FaultPoint &);
using Sig_phi_heartbeat = void(membership::PhiAccrualDetector *,
                               sim::SocId, double);
using Sig_phi_level = double(const membership::PhiAccrualDetector *,
                             sim::SocId, double);
using Sig_gate_admit = bool(membership::GenerationGate *, std::uint64_t);
using Sig_gate_bump = std::uint64_t(membership::GenerationGate *);
using Sig_has_quorum = bool(const SocIds &, std::size_t, sim::SocId);
using Sig_ckpt_write = ckpt::WriteReceipt(ckpt::ReplicatedCkptStore *,
                                          std::uint64_t,
                                          const std::vector<std::uint8_t> &);
using Sig_ckpt_restore = ckpt::RestoreResult(ckpt::ReplicatedCkptStore *,
                                             sim::SocId);
using Sig_dataset_batch = std::pair<Tensor, std::vector<int>>(
    const data::Dataset *, const std::vector<std::size_t> &);
using Sig_profiler_add_span = void(obs::Profiler *, std::size_t,
                                   obs::Phase, double, double);
using Sig_profiler_end_epoch = void(obs::Profiler *, double);
using Sig_profiler_resource = void(obs::Profiler *, const std::string &,
                                   double, double, double, double);
using Sig_parallel_for = void(ThreadPool *, std::size_t,
                              const std::function<void(std::size_t)> &);

#define LAYER_ENTRY(id, sym, layer, on)                                 \
    Sig_##id real_##id __asm__("__real_" sym);                          \
    Sig_##id wrap_##id __asm__("__wrap_" sym);
#include "layer_table.def"
#undef LAYER_ENTRY

void
wrap_span_begin(obs::Tracer *t, std::string_view name,
                std::string_view category, int tid)
{
    real_span_begin(t, name, category, tid);
    layers::spanOpened(name);
}

void
wrap_span_end(obs::Tracer *t)
{
    layers::spanClosing();
    real_span_end(t);
}

void
wrap_set_active_groups(core::SoCFlowTrainer *t, std::size_t n)
{
    Scope s(layers::set_active_groups);
    real_set_active_groups(t, n);
}

std::vector<std::uint8_t>
wrap_save_checkpoint(const core::SoCFlowTrainer *t)
{
    Scope s(layers::save_checkpoint);
    std::vector<std::uint8_t> bytes = real_save_checkpoint(t);
    s.amount(static_cast<double>(bytes.size()));
    return bytes;
}

core::SyncSchedule
wrap_plan_sync(const CollectiveEngine &engine, const core::Mapping &mapping,
               const core::CommPlan &plan, double bytes)
{
    Scope s(layers::plan_sync);
    return real_plan_sync(engine, mapping, plan, bytes);
}

void
wrap_mp_merge(const core::MixedPrecisionController *mpc,
              const std::vector<float> &fp32, const std::vector<float> &int8,
              std::vector<float> &out)
{
    Scope s(layers::mp_merge);
    real_mp_merge(mpc, fp32, int8, out);
}

void
wrap_mp_alpha(core::MixedPrecisionController *mpc, const Tensor &fp32,
              const Tensor &int8)
{
    Scope s(layers::mp_alpha);
    real_mp_alpha(mpc, fp32, int8);
}

nn::StepResult
wrap_model_train_step(nn::Model *m, const Tensor &x,
                      const std::vector<int> &y)
{
    Scope s(layers::model_train_step);
    return real_model_train_step(m, x, y);
}

nn::StepResult
wrap_model_evaluate(nn::Model *m, const Tensor &x,
                    const std::vector<int> &y)
{
    Scope s(layers::model_evaluate);
    return real_model_evaluate(m, x, y);
}

void
wrap_sgd_step(nn::Sgd *sgd)
{
    Scope s(layers::sgd_step);
    real_sgd_step(sgd);
}

nn::StepResult
wrap_int8_train_step(quant::Int8Trainer *t, const Tensor &x,
                     const std::vector<int> &y)
{
    Scope s(layers::int8_train_step);
    return real_int8_train_step(t, x, y);
}

void
wrap_conv_forward(const Tensor &x, const Tensor &w, const ConvGeom &g,
                  Tensor &out)
{
    Scope s(layers::conv_forward);
    real_conv_forward(x, w, g, out);
}

void
wrap_conv_backward(const Tensor &x, const Tensor &w, const ConvGeom &g,
                   const Tensor &grad_out, Tensor *grad_x, Tensor &grad_w)
{
    Scope s(layers::conv_backward);
    real_conv_backward(x, w, g, grad_out, grad_x, grad_w);
}

void
wrap_gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
          Tensor &c, float beta)
{
    Scope s(layers::gemm);
    real_gemm(a, trans_a, b, trans_b, c, beta);
}

double
wrap_flow_makespan(const sim::FlowNetwork *net,
                   const std::vector<sim::FlowSpec> &flows)
{
    Scope s(layers::flow_makespan, net->captureActive());
    s.amount(static_cast<double>(flows.size()));
    return real_flow_makespan(net, flows);
}

std::vector<sim::FlowResult>
wrap_flow_simulate(const sim::FlowNetwork *net,
                   const std::vector<sim::FlowSpec> &flows)
{
    Scope s(layers::flow_simulate, net->captureActive());
    s.amount(static_cast<double>(flows.size()));
    return real_flow_simulate(net, flows);
}

CommStats
wrap_ring_all_reduce(const CollectiveEngine *e, const SocIds &ring,
                     double bytes)
{
    Scope s(layers::ring_all_reduce);
    return real_ring_all_reduce(e, ring, bytes);
}

CommStats
wrap_concurrent_rings(const CollectiveEngine *e,
                      const std::vector<SocIds> &rings, double bytes)
{
    Scope s(layers::concurrent_rings);
    return real_concurrent_rings(e, rings, bytes);
}

CommStats
wrap_hierarchical_all_reduce(const CollectiveEngine *e,
                             const SocIds &members, double bytes)
{
    Scope s(layers::hierarchical_all_reduce);
    return real_hierarchical_all_reduce(e, members, bytes);
}

CommStats
wrap_broadcast(const CollectiveEngine *e, sim::SocId root,
               const SocIds &dests, double bytes)
{
    Scope s(layers::broadcast);
    return real_broadcast(e, root, dests, bytes);
}

SyncOutcome
wrap_ring_resilient(const CollectiveEngine *e, const SocIds &ring,
                    double bytes, const SocIds *extra_dead)
{
    Scope s(layers::ring_resilient);
    return real_ring_resilient(e, ring, bytes, extra_dead);
}

SyncOutcome
wrap_ring_resume(const CollectiveEngine *e, const SocIds &ring,
                 double bytes, std::size_t acked_rounds,
                 const SocIds *extra_dead)
{
    Scope s(layers::ring_resume);
    return real_ring_resume(e, ring, bytes, acked_rounds, extra_dead);
}

SyncOutcome
wrap_ring_checked(const CollectiveEngine *e, const SocIds &ring,
                  double bytes, std::size_t corrupt_chunks)
{
    Scope s(layers::ring_checked);
    return real_ring_checked(e, ring, bytes, corrupt_chunks);
}

SyncOutcome
wrap_ring_fenced(const CollectiveEngine *e, const SocIds &ring,
                 double bytes, const std::vector<std::uint64_t> &member_gen,
                 std::uint64_t current_gen)
{
    Scope s(layers::ring_fenced);
    return real_ring_fenced(e, ring, bytes, member_gen, current_gen);
}

std::vector<fault::FaultSpec>
wrap_fault_advance(fault::FaultInjector *inj, const fault::FaultPoint &now)
{
    Scope s(layers::fault_advance);
    return real_fault_advance(inj, now);
}

void
wrap_phi_heartbeat(membership::PhiAccrualDetector *d, sim::SocId soc,
                   double now_s)
{
    Scope s(layers::phi_heartbeat);
    real_phi_heartbeat(d, soc, now_s);
}

double
wrap_phi_level(const membership::PhiAccrualDetector *d, sim::SocId soc,
               double now_s)
{
    Scope s(layers::phi_level);
    return real_phi_level(d, soc, now_s);
}

bool
wrap_gate_admit(membership::GenerationGate *g, std::uint64_t generation)
{
    Scope s(layers::gate_admit);
    return real_gate_admit(g, generation);
}

std::uint64_t
wrap_gate_bump(membership::GenerationGate *g)
{
    Scope s(layers::gate_bump);
    return real_gate_bump(g);
}

bool
wrap_has_quorum(const SocIds &side, std::size_t total_live,
                sim::SocId lowest_live)
{
    Scope s(layers::has_quorum);
    return real_has_quorum(side, total_live, lowest_live);
}

ckpt::WriteReceipt
wrap_ckpt_write(ckpt::ReplicatedCkptStore *store, std::uint64_t epoch,
                const std::vector<std::uint8_t> &blob)
{
    Scope s(layers::ckpt_write);
    ckpt::WriteReceipt r = real_ckpt_write(store, epoch, blob);
    s.amount(r.acked ? 1.0 : 0.0);
    return r;
}

ckpt::RestoreResult
wrap_ckpt_restore(ckpt::ReplicatedCkptStore *store, sim::SocId reader)
{
    Scope s(layers::ckpt_restore);
    return real_ckpt_restore(store, reader);
}

std::pair<Tensor, std::vector<int>>
wrap_dataset_batch(const data::Dataset *d,
                   const std::vector<std::size_t> &idx)
{
    Scope s(layers::dataset_batch);
    return real_dataset_batch(d, idx);
}

void
wrap_profiler_add_span(obs::Profiler *p, std::size_t slot, obs::Phase ph,
                       double start_s, double end_s)
{
    Scope s(layers::profiler_add_span);
    real_profiler_add_span(p, slot, ph, start_s, end_s);
}

void
wrap_profiler_end_epoch(obs::Profiler *p, double wall_s)
{
    Scope s(layers::profiler_end_epoch);
    real_profiler_end_epoch(p, wall_s);
}

void
wrap_profiler_resource(obs::Profiler *p, const std::string &name,
                       double capacity_bps, double busy_s,
                       double bytes_through, double binding_s)
{
    Scope s(layers::profiler_resource);
    real_profiler_resource(p, name, capacity_bps, busy_s, bytes_through,
                           binding_s);
}

void
wrap_parallel_for(ThreadPool *pool, std::size_t n,
                  const std::function<void(std::size_t)> &fn)
{
    // Nested use from a pool worker runs inline: that work belongs to
    // the calling layer, not to a fan-out.
    if (ThreadPool::inWorkerThread()) {
        real_parallel_for(pool, n, fn);
        return;
    }
    Scope s(layers::parallel_for);
    real_parallel_for(pool, n, fn);
}

} // namespace wrapped
} // namespace socflow_bench
