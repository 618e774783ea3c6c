package engine

// Failure-semantics policy for coordinating engines. Strict is the
// historical contract — any unreachable shard fails the whole query, a
// partial cohort is never returned. Degraded trades completeness for
// availability: the answer is computed over the reachable shards and the
// unreachable ones are named explicitly in a QueryStatus, so a caller
// can render "cohort over 14 of 16 shards" instead of an error page
// while the hospital's aggregation backends flap. Degradation only ever
// applies to transport-level unavailability (IsUnavailable); semantic
// errors — a wrong-sized mask, a plan with no wire form, a corrupt reply —
// stay loud under either policy, because they signal bugs, not outages.

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pastas/internal/store"
)

// Policy selects the coordinator's behavior when a shard is unreachable.
type Policy int

const (
	// PolicyStrict fails any operation that cannot reach every shard it
	// needs. The default.
	PolicyStrict Policy = iota
	// PolicyDegraded answers over the reachable shards and reports the
	// unreachable ones in the operation's QueryStatus.
	PolicyDegraded
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyStrict:
		return "strict"
	case PolicyDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ErrUnavailable marks transport-level failures: dial errors, call
// timeouts, connection resets, exhausted failover attempts. Errors
// wrapping it are safe to retry on another replica of the same server
// (every ShardBackend operation is read-only and idempotent), and they
// are the only errors PolicyDegraded absorbs.
var ErrUnavailable = errors.New("backend unavailable")

// ErrDraining is the distinct refusal a shard server answers with once
// Shutdown has begun: the server is alive but will not take new work.
// A replicated group treats it exactly like unavailability — fail over, do
// not error — so rolling restarts are invisible to queries.
var ErrDraining = errors.New("shard server draining")

// drainingMarker is the substring the server embeds in its refusal;
// net/rpc flattens server-side errors to strings, so the client
// re-classifies by content.
const drainingMarker = "server draining"

// IsUnavailable reports whether err is a transport-level failure (or a
// drain refusal) that failover and degradation may absorb.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrDraining)
}

// ShardError attributes a fan-out failure to the shard it came from, so
// API layers can name the failing shard structurally (an error envelope's
// shards_missing list) instead of parsing error text.
type ShardError struct {
	Shard int
	Err   error
}

// Error implements error; the message is the wrapped error's — the
// attribution rides alongside, it does not reformat.
func (e *ShardError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// FailedShards collects every shard id attributed anywhere in err's
// wrap chain, sorted ascending and deduplicated. Nil when no ShardError
// is present — a local failure, not an outage.
func FailedShards(err error) []int {
	seen := map[int]bool{}
	var out []int
	for {
		var se *ShardError
		if !errors.As(err, &se) {
			break
		}
		if !seen[se.Shard] {
			seen[se.Shard] = true
			out = append(out, se.Shard)
		}
		err = se.Err
	}
	sort.Ints(out)
	return out
}

// QueryStatus reports the completeness of one coordinator operation.
// Under PolicyStrict it is always complete (incomplete answers become
// errors before they reach a caller); under PolicyDegraded it names
// exactly the shards whose backends were unreachable.
type QueryStatus struct {
	// MissingShards are the shard ids that did not contribute to the
	// answer, sorted ascending. Empty means the answer is complete.
	MissingShards []int
	// MissingPatients is the total population of the missing shards —
	// the upper bound on how many cohort members the answer can lack.
	MissingPatients int
}

// Complete reports whether every shard contributed.
func (s QueryStatus) Complete() bool { return len(s.MissingShards) == 0 }

// IncompleteMask renders the missing shards as a bitmask over shard ids
// (bit i set ⇔ shard i did not answer), sized to the topology's shard
// count. Shard ids outside [0, shards) are ignored.
func (s QueryStatus) IncompleteMask(shards int) *store.Bitset {
	mask := store.NewBitset(shards)
	for _, id := range s.MissingShards {
		if id >= 0 && id < shards {
			mask.Set(id)
		}
	}
	return mask
}

// String renders "complete" or "incomplete (shards 1,3 unreachable; ≤N
// patients missing)".
func (s QueryStatus) String() string {
	if s.Complete() {
		return "complete"
	}
	parts := make([]string, len(s.MissingShards))
	for i, id := range s.MissingShards {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return fmt.Sprintf("incomplete (shards %s unreachable; ≤%d patients missing)",
		strings.Join(parts, ","), s.MissingPatients)
}

// statusFromMissing builds a QueryStatus from the indexes of the failed
// backends, translating them to shard ids and tallying the population
// they cover.
func (e *Engine) statusFromMissing(t *topo, failed []int) QueryStatus {
	if len(failed) == 0 {
		return QueryStatus{}
	}
	st := QueryStatus{MissingShards: make([]int, 0, len(failed))}
	for _, i := range failed {
		m := t.backends[i].Meta()
		st.MissingShards = append(st.MissingShards, m.Shard)
		st.MissingPatients += m.Patients
	}
	sort.Ints(st.MissingShards)
	return st
}
