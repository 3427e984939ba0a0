// Package resilience is the fleet's shared failure-handling toolkit,
// two small pieces every router→worker and worker→worker RPC runs
// through:
//
//   - Retry policy (Policy): capped exponential backoff with
//     deterministic jitter, context-aware sleeping, and a Permanent
//     error wrapper to stop retrying on definitive answers. One policy
//     replaces the ad-hoc "loop and hope" retry logic; callers pair it
//     with an idempotency key so a retried submission cannot
//     double-create work.
//
//   - Deadline propagation: a per-request deadline travels end to end as
//     a context deadline in-process and an X-Deadline header on the
//     wire. SetDeadlineHeader stamps outgoing requests; WithDeadline is
//     the server-side middleware that parses the header back into the
//     request context (never extending an existing deadline), so a
//     client's time budget bounds every hop of a fan-out instead of
//     resetting at each one.
//
// Faults are injected from the outside: the fleet's chaos tests wrap
// each peer client's transport, so no injection site is compiled into
// the production paths.
package resilience
