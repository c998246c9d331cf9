#include "serve/retry.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/mix.hpp"

namespace clm {

bool
RetryPolicy::retryable(ServeStatus s) const
{
    switch (s) {
    case ServeStatus::ShedQueueFull:
    case ServeStatus::ShedDeadline:
        return true;
    case ServeStatus::Ok:
    case ServeStatus::RejectedShutdown:
        return false;
    }
    return false;
}

double
RetryPolicy::backoffSeconds(uint64_t request_key, int attempt) const
{
    double backoff = base_s;
    for (int a = 1; a < attempt && backoff < cap_s; ++a)
        backoff *= 2.0;
    backoff = std::min(backoff, cap_s);
    const double jitter = mixToUnit(splitmix64(
        seed ^ request_key ^ (static_cast<uint64_t>(attempt) << 48)));
    return backoff * (0.5 + 0.5 * jitter);
}

RenderResponse
submitWithRetry(RenderService &service, const Camera &camera,
                const RetryPolicy &policy, uint64_t request_key,
                RetryStats *stats)
{
    RenderResponse resp;
    for (int attempt = 1;; ++attempt) {
        if (stats != nullptr)
            ++stats->attempts;
        resp = service.submit(camera).get();
        if (resp.ok())
            return resp;
        if (!policy.retryable(resp.status)
            || attempt >= policy.max_attempts) {
            if (stats != nullptr)
                ++stats->gave_up;
            return resp;
        }
        const double backoff =
            policy.backoffSeconds(request_key, attempt);
        if (stats != nullptr) {
            ++stats->retries;
            stats->backoff_s += backoff;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff));
    }
}

} // namespace clm
