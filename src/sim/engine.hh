/**
 * @file
 * The TaskSim-style simulation engine.
 *
 * A trace-driven, discrete-event multicore simulator: the runtime
 * model schedules task instances onto simulated cores; each instance
 * executes either in detailed mode (ROB + cache hierarchy, interleaved
 * with other cores in quanta of instructions to model contention in
 * approximate global-time order) or in fast/burst mode (duration
 * computed as ceil(I_i / IPC) at task start — the paper's fast-forward
 * extension of TaskSim's burst mode, Section IV).
 *
 * With a null ModeController the engine is the reference
 * full-detailed simulator; with a TaskPointController it performs
 * sampled simulation.
 */

#ifndef TP_SIM_ENGINE_HH
#define TP_SIM_ENGINE_HH

#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/arch_config.hh"
#include "cpu/rob_core.hh"
#include "memory/hierarchy.hh"
#include "runtime/runtime.hh"
#include "sim/checkpoint.hh"
#include "sim/event_queue.hh"
#include "sim/mode_controller.hh"
#include "sim/noise.hh"
#include "sim/sim_result.hh"
#include "trace/trace.hh"

namespace tp::sim {

class TraceObserver;

/** Full configuration of one simulation. */
struct SimConfig
{
    cpu::ArchConfig arch;
    std::uint32_t numThreads = 8;
    rt::RuntimeConfig runtime;
    /**
     * Instructions per detailed-core scheduling quantum. Must stay
     * well below the typical task size (~10x smaller or more) so
     * concurrent detailed cores interleave their accesses to shared
     * resources in approximate global-time order; whole-task quanta
     * serialize contention and inflate queueing delays.
     */
    InstCount quantum = 1024;
    NoiseConfig noise;
    /** Keep per-instance TaskRecords (Figs. 1/5 need them). */
    bool recordTasks = true;
};

/** See file comment. */
class Engine
{
  public:
    /**
     * @param config simulated machine + runtime parameters
     * @param trace  application to simulate (not owned; must outlive)
     */
    Engine(const SimConfig &config, const trace::TaskTrace &trace);

    /**
     * Attach a trace observer (sim/trace_observer.hh) receiving task
     * lifecycle, phase-transition and sample-boundary events from the
     * next run(). Not owned; must outlive the run. Observers are
     * read-only: attaching one never perturbs simulated behaviour.
     */
    void setObserver(TraceObserver *observer) { observer_ = observer; }

    /**
     * Run the whole application (or one checkpoint-delimited slice
     * of it).
     * @param controller sampling methodology, or nullptr for the
     *                   full-detailed reference simulation
     * @param hooks      optional checkpoint behaviour: record warm
     *                   state at sample boundaries, restore a
     *                   recorded state instead of starting cold,
     *                   and/or stop at a given boundary (see
     *                   sim/checkpoint.hh). Boundaries only exist
     *                   when `controller` advances phaseEpoch().
     * @return aggregate results (per-task records if configured);
     *         for a slice, the records cover the slice's interval
     *         and the counters continue the restored totals
     */
    SimResult run(ModeController *controller = nullptr,
                  const CheckpointHooks *hooks = nullptr);

  private:
    /** Execution state of one simulated core. */
    struct CoreState
    {
        enum class St : std::uint8_t { Idle, Detailed, Fast };
        St st = St::Idle;
        TaskInstanceId task = kNoTaskInstance;
        Cycles start = 0;  //!< task start (after dispatch overhead)
        Cycles finish = 0; //!< fast-mode completion time
    };

    /** Assign ready tasks to idle cores at time `now`. */
    void assignTasks(Cycles now);

    /** Begin one task on one core at time `now`. */
    void startTask(ThreadId core, TaskInstanceId id, Cycles now);

    /** Finish the task running on `core` at time `finish`. */
    void completeTask(ThreadId core, Cycles finish);

    /** Emit onPhaseChange if the controller's phase moved. */
    void pollObserverPhase(Cycles at);

    /** @return snapshot for controller callbacks. */
    EngineStatus status(Cycles now, bool counting_new_task) const;

    /**
     * Serialize the engine's dynamic state (cores, memory, runtime,
     * event queue, counters, RNGs — everything but the config, the
     * trace and the accumulated TaskRecords).
     */
    void saveState(BinaryWriter &w) const;

    /** Exact inverse of saveState(); throws IoError on corruption. */
    void loadState(BinaryReader &r);

    SimConfig config_;
    const trace::TaskTrace &trace_;
    mem::Hierarchy mem_;
    rt::RuntimeModel runtime_;
    NoiseModel noise_;
    ModeController *controller_ = nullptr;
    TraceObserver *observer_ = nullptr;
    /** Last phase reported to the observer (0xff = none yet). */
    std::uint8_t observerPhase_ = 0xff;

    std::vector<cpu::RobCore> cores_;
    std::vector<CoreState> states_;
    /**
     * Next-event time per busy core (fast cores by their known
     * completion time, detailed cores by local progress), replacing
     * a per-event scan over all cores. Maintained by startTask /
     * completeTask / the run loop; idle cores are absent.
     */
    CoreEventQueue events_;
    /** Busy cores, maintained incrementally (= events_.size()). */
    std::uint32_t activeCores_ = 0;
    Rng jitterRng_{0x7a5c0ffee};

    SimResult result_;
    Cycles lastCompletion_ = 0;
    Cycles busyCycles_ = 0; //!< sum of task durations (for avg cores)
    InstCount fastInstsSinceAging_ = 0;
    bool ran_ = false;
};

} // namespace tp::sim

#endif // TP_SIM_ENGINE_HH
