#include "serve/stream.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"

namespace ad::serve {

FrameQueue::FrameQueue(int depth) : depth_(depth)
{
    if (depth < 0)
        fatal("FrameQueue: negative depth");
}

std::optional<FrameTicket>
FrameQueue::push(const FrameTicket& ticket)
{
    if (depth_ == 0)
        return ticket; // nothing may wait: the offer itself is stale.
    if (static_cast<int>(queue_.size()) < depth_) {
        queue_.push_back(ticket);
        return std::nullopt;
    }
    // Freshest-frame policy: evict the oldest waiter, keep the new
    // frame -- the vehicle reacts to the newest view of the road.
    FrameTicket evicted = queue_.front();
    queue_.pop_front();
    queue_.push_back(ticket);
    return evicted;
}

std::optional<FrameTicket>
FrameQueue::pop()
{
    if (queue_.empty())
        return std::nullopt;
    FrameTicket t = queue_.front();
    queue_.pop_front();
    return t;
}

StreamState::StreamState(int id_, const StreamParams& params_,
                         const pipeline::GovernorParams& governorParams,
                         const SloParams& sloParams)
    : id(id_), params(params_), queue(params_.queueDepth),
      governor(governorParams), slo(sloParams, params_.deadlineMs)
{
}

void
StreamState::observeCompletion(std::int64_t frame, double latencyMs,
                               double tailDecay, bool engineServed)
{
    tailEstimateMs = std::max(latencyMs, tailEstimateMs * tailDecay);
    if (engineServed)
        servedLatency.record(latencyMs);
    slo.observe(latencyMs,
                engineServed && latencyMs <= params.deadlineMs);
    // The governor sees the whole serving latency on the DET axis:
    // queueing + batching + inference is the detection branch of the
    // stream's frame, and endToEndMs() then equals latencyMs.
    obs::FrameLatencySample sample;
    sample.detMs = latencyMs;
    governor.observe(frame, sample);
}

double
StreamState::slackMs() const
{
    double tail = tailEstimateMs;
    // The window p99 only participates once resolvable (>= 100
    // samples); before that it reports the -1 sentinel and slack
    // rests on the peak-decay estimate alone.
    const double sloTail = slo.tailMs();
    if (sloTail >= 0.0)
        tail = std::max(tail, sloTail);
    return std::max(0.0, params.deadlineMs - tail);
}

OwnershipToken
StreamState::acquireOwnership(int newOwner)
{
    if (owner_ >= 0)
        fatal("StreamState: stream " + std::to_string(id) +
              " already owned by " + std::to_string(owner_) +
              "; handoff requires an explicit release first");
    if (newOwner < 0)
        fatal("StreamState: invalid owner id");
    owner_ = newOwner;
    return OwnershipToken{id, epoch_};
}

void
StreamState::releaseOwnership(const OwnershipToken& token)
{
    assertOwnership(token, "release");
    owner_ = -1;
    ++epoch_; // every outstanding copy of the token is now stale.
}

bool
StreamState::ownershipCurrent(const OwnershipToken& token) const
{
    return owner_ >= 0 && token.stream == id && token.epoch == epoch_;
}

void
StreamState::assertOwnership(const OwnershipToken& token,
                             const char* what) const
{
    if (ownershipCurrent(token))
        return;
    fatal(std::string("StreamState: stale ownership token on ") +
          what + " of stream " + std::to_string(id) + " (token epoch " +
          std::to_string(token.epoch) + ", stream epoch " +
          std::to_string(epoch_) + ", owner " +
          std::to_string(owner_) +
          "): a migrated stream may only be dispatched by its "
          "current owner");
}

int
StreamRegistry::addStream(const StreamParams& params,
                          const pipeline::GovernorParams& governorParams,
                          const SloParams& sloParams)
{
    const int id = static_cast<int>(streams_.size());
    streams_.push_back(std::make_unique<StreamState>(
        id, params, governorParams, sloParams));
    return id;
}

int
StreamRegistry::adopt(std::unique_ptr<StreamState> stream)
{
    if (!stream)
        fatal("StreamRegistry: adopt of null stream");
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i])
            continue;
        streams_[i] = std::move(stream);
        return static_cast<int>(i);
    }
    streams_.push_back(std::move(stream));
    return static_cast<int>(streams_.size() - 1);
}

std::unique_ptr<StreamState>
StreamRegistry::extract(int slot)
{
    if (slot < 0 || static_cast<std::size_t>(slot) >= streams_.size() ||
        !streams_[static_cast<std::size_t>(slot)])
        fatal("StreamRegistry: extract of vacant slot " +
              std::to_string(slot));
    return std::move(streams_[static_cast<std::size_t>(slot)]);
}

StreamState*
StreamRegistry::find(int slot)
{
    if (slot < 0 || static_cast<std::size_t>(slot) >= streams_.size())
        return nullptr;
    return streams_[static_cast<std::size_t>(slot)].get();
}

const StreamState*
StreamRegistry::find(int slot) const
{
    if (slot < 0 || static_cast<std::size_t>(slot) >= streams_.size())
        return nullptr;
    return streams_[static_cast<std::size_t>(slot)].get();
}

const StreamState*
StreamRegistry::firstActive() const
{
    for (const auto& s : streams_)
        if (s)
            return s.get();
    return nullptr;
}

std::size_t
StreamRegistry::active() const
{
    std::size_t n = 0;
    for (const auto& s : streams_)
        if (s)
            ++n;
    return n;
}

std::int64_t
StreamRegistry::totalArrived() const
{
    std::int64_t sum = 0;
    for (const auto& s : streams_)
        if (s)
            sum += s->stats.arrived;
    return sum;
}

int
StreamRegistry::mostSlackStream(pipeline::OperatingMode cap) const
{
    int best = -1;
    double bestSlack = -1.0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        const auto& s = streams_[i];
        if (!s || s->governor.mode() >= cap)
            continue;
        const double slack = s->slackMs();
        if (slack > bestSlack) {
            bestSlack = slack;
            best = static_cast<int>(i);
        }
    }
    return best;
}

} // namespace ad::serve
