/**
 * @file
 * Discrete-event engine shared by the timing front ends (runTiming and
 * runTimingOnSources).  Replay needs no clock: it steps ReplayLanes in
 * a plain loop (sim/activation_sim.hpp).
 *
 * The engine owns one priority queue of events ordered by
 * (time, actor-id, insertion-seq); actors - cores, the refresh/epoch
 * timer, the memory controller's stimulus sources - are first-class
 * participants that schedule themselves and consume their own events.
 * The tie-break order is part of the contract:
 *
 *   1. earlier time first;
 *   2. at equal time, the actor registered first (lower actor id);
 *   3. for the same actor at the same time, FIFO insertion order.
 *
 * Rule 2 is what lets the open-loop timing front end reproduce the
 * historical scan loop bit for bit: the epoch timer registers before
 * the cores, so an epoch boundary fires before any core whose clock
 * has reached it (the old `earliest->time() >= nextEpoch` test), and
 * ties between cores resolve to the lowest core id exactly as the old
 * linear scan did.  Rule 3 makes the order total.
 *
 * Two actor roles exist: Source actors (cores, stimulus sources) keep
 * the engine alive and must retire() when done; Timer actors (the
 * epoch clock) never keep the engine running on their own - the run
 * stops the moment the last Source retires, exactly as the historical
 * loops stopped when the last core's trace ended, leaving any pending
 * timer events unfired.
 */

#ifndef CATSIM_SIM_EVENT_ENGINE_HPP
#define CATSIM_SIM_EVENT_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hpp"

namespace catsim
{

/** Simulated timestamp in bus cycles. */
using SimTime = double;

/** Index assigned by EventEngine::addActor (registration order). */
using ActorId = std::uint32_t;

class EventEngine;

/** One participant in the event loop. */
class SimActor
{
  public:
    virtual ~SimActor() = default;

    /**
     * Consume one event previously scheduled for this actor.  The
     * actor re-arms itself via EventEngine::schedule (at most one
     * outstanding event per actor) or, for Source actors, calls
     * EventEngine::retire when its stream is exhausted.
     */
    virtual void onEvent(SimTime now) = 0;
};

/** Deterministic discrete-event queue over registered actors. */
class EventEngine
{
  public:
    /** Source actors keep the run alive; Timer actors do not. */
    enum class ActorRole
    {
        Source,
        Timer,
    };

    /**
     * Register an actor; ids are assigned in call order and double as
     * the same-time tie-break priority.  @p actor must outlive run().
     */
    ActorId addActor(SimActor *actor, ActorRole role);

    /**
     * Arm @p id to fire at @p at.  An actor may have at most one
     * outstanding event; scheduling is only legal from outside run()
     * (initial arming) or from within the actor's own onEvent.
     */
    void schedule(ActorId id, SimTime at);

    /** A Source actor is done; never schedule it again. */
    void retire(ActorId id);

    /**
     * Pop-and-dispatch until every Source actor has retired.  Pending
     * Timer events past that point are dropped unfired.
     */
    void run();

    /** Source actors registered and not yet retired. */
    Count liveSources() const { return liveSources_; }

  private:
    struct Event
    {
        SimTime time = 0.0;
        ActorId actor = 0;
        std::uint64_t seq = 0;
    };

    /** Min-heap order: the documented (time, actor, seq) tie-break. */
    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            if (a.actor != b.actor)
                return a.actor > b.actor;
            return a.seq > b.seq;
        }
    };

    std::vector<SimActor *> actors_;
    std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
    std::uint64_t nextSeq_ = 0;
    Count liveSources_ = 0;
};

/**
 * Engine-owned auto-refresh epoch clock.  Owns the epoch-length
 * arithmetic that timing front ends used to copy (`nextEpoch +=
 * epochCycles` with the same floating-point accumulation order) and
 * fires @p on_epoch at every boundary; epoch work is whatever the
 * front end installs (scheme resets, kEpochMarker emission).
 */
class EpochTimerActor : public SimActor
{
  public:
    using Callback = std::function<void()>;

    /**
     * @param engine       Engine to register with (as a Timer actor);
     *                     must be registered FIRST so epoch boundaries
     *                     win same-time ties against every source.
     * @param epoch_cycles Scaled epoch length; fatal below one cycle.
     * @param on_epoch     Invoked once per boundary crossed.
     */
    EpochTimerActor(EventEngine &engine, double epoch_cycles,
                    Callback on_epoch);

    void onEvent(SimTime now) override;

    /** Boundaries fired so far. */
    Count epochs() const { return epochs_; }

  private:
    EventEngine &engine_;
    ActorId id_;
    double epochCycles_;
    double next_;
    Callback onEpoch_;
    Count epochs_ = 0;
};

/**
 * Append the kEpochMarker sentinel to every recorded per-bank stream -
 * the one emission point shared by the timing front end and trace
 * ingestion (historically copy-pasted loops).
 */
void appendEpochMarkers(std::vector<std::vector<RowAddr>> &streams);

} // namespace catsim

#endif // CATSIM_SIM_EVENT_ENGINE_HPP
