package fleet

import (
	"sort"
	"time"

	"gridftp.dev/instant/internal/obs/tenant"
)

// This file federates the per-instance tenant accounting planes
// (internal/obs/tenant) into one fleet-wide "who is consuming the
// fleet" view. Instances push their full sketch tables in the envelope;
// the head keeps them under the same epoch discipline as counters:
//
//   - a process restart (detected in Ingest: process.start_time_seconds
//     changed, or a metric counter ran backwards) folds the instance's
//     raw table into its base in the same critical section, so fleet
//     totals stay monotone across restarts;
//   - sketch eviction/readmission on the pusher looks like a restart
//     for exactly one DN, so the fold is per-DN, not per-instance —
//     other tenants' running totals are untouched;
//   - staleness follows the counter rule: a stale instance's
//     cumulative contributions stay in the fleet sums (frozen), while
//     its gauge-like Active count drops out.
//
// The merged view is exact-per-push aggregation over sketch outputs,
// so the fleet numbers inherit the per-instance space-saving bounds:
// a tenant's fleet weight is overestimated by at most the sum of the
// instances' N/C bounds (each table entry carries its own Err).

// maxTenantsPerInstance bounds one instance's tenant table: a
// misbehaving pusher inventing DNs must not grow head memory without
// limit. At the default sketch capacity (512) a legitimate pusher
// never comes close.
const maxTenantsPerInstance = 4096

// tenantCounters is the summable core of one tenant's accounting on
// one instance — tenant.Stat minus the derived/identity fields.
type tenantCounters struct {
	weight        int64
	err           int64
	bytes         int64
	tasks         int64
	tasksFailed   int64
	commands      int64
	commandErrors int64
	queueWaitSecs float64
	active        int64 // gauge-like: latest raw value, never folded
	firstSeen     time.Time
	lastSeen      time.Time
}

func countersFrom(st tenant.Stat) tenantCounters {
	return tenantCounters{
		weight: st.Weight, err: st.Err, bytes: st.Bytes,
		tasks: st.Tasks, tasksFailed: st.TasksFailed,
		commands: st.Commands, commandErrors: st.CommandErrors,
		queueWaitSecs: st.QueueWaitSeconds, active: st.Active,
		firstSeen: st.FirstSeen, lastSeen: st.LastSeen,
	}
}

// fold accumulates a finished incarnation into the base record.
// Cumulative quantities add; Active is current-state only and stays
// with the raw side; the seen range widens.
func (c tenantCounters) fold(raw tenantCounters) tenantCounters {
	c.weight += raw.weight
	c.err += raw.err
	c.bytes += raw.bytes
	c.tasks += raw.tasks
	c.tasksFailed += raw.tasksFailed
	c.commands += raw.commands
	c.commandErrors += raw.commandErrors
	c.queueWaitSecs += raw.queueWaitSecs
	if c.firstSeen.IsZero() || (!raw.firstSeen.IsZero() && raw.firstSeen.Before(c.firstSeen)) {
		c.firstSeen = raw.firstSeen
	}
	if raw.lastSeen.After(c.lastSeen) {
		c.lastSeen = raw.lastSeen
	}
	return c
}

// foldTenants folds the whole raw table into base — the process-restart
// path, called from Ingest under s.mu.
func (i *instanceState) foldTenants() {
	for dn, raw := range i.tenantRaw {
		i.tenantBase[dn] = i.tenantBase[dn].fold(raw)
	}
	i.tenantRaw = make(map[string]tenantCounters)
}

// ingestTenants lands an envelope's tenant table on the raw side, called
// from Ingest under s.mu after any restart fold.
func (i *instanceState) ingestTenants(table []tenant.Stat) {
	for _, st := range table {
		if st.DN == "" {
			continue
		}
		cur := countersFrom(st)
		prev, seen := i.tenantRaw[st.DN]
		if !seen && len(i.tenantRaw) >= maxTenantsPerInstance {
			continue // bounded: drop table overflow, never grow past the cap
		}
		if seen && cur.bytes < prev.bytes {
			// This DN's counters went backwards: the pusher's sketch
			// evicted and readmitted it. Fold the finished incarnation —
			// only this DN's.
			i.tenantBase[st.DN] = i.tenantBase[st.DN].fold(prev)
		}
		i.tenantRaw[st.DN] = cur
	}
}

// Tenants returns the fleet-merged tenant table, heaviest first, at
// most k entries (k <= 0 means 10): per-DN sums of every instance's
// restart-proof effective counters, with Active contributed only by
// live (non-stale) instances, Share computed against fleet bytes, and
// ranks assigned after the merge.
func (s *Service) Tenants(k int) []tenant.Stat {
	if k <= 0 {
		k = 10
	}
	s.mu.Lock()
	merged := make(map[string]tenantCounters)
	for _, inst := range s.instances {
		for dn, base := range inst.tenantBase {
			merged[dn] = merged[dn].fold(base)
		}
		for dn, raw := range inst.tenantRaw {
			m := merged[dn].fold(raw)
			if !inst.stale {
				m.active += raw.active
			}
			merged[dn] = m
		}
	}
	s.mu.Unlock()

	var totalBytes int64
	for _, c := range merged {
		totalBytes += c.bytes
	}
	out := make([]tenant.Stat, 0, len(merged))
	for dn, c := range merged {
		st := tenant.Stat{
			DN: dn, Hash: tenant.Hash(dn),
			Weight: c.weight, Err: c.err, Bytes: c.bytes,
			Tasks: c.tasks, TasksFailed: c.tasksFailed,
			Commands: c.commands, CommandErrors: c.commandErrors,
			QueueWaitSeconds: c.queueWaitSecs, Active: c.active,
			FirstSeen: c.firstSeen, LastSeen: c.lastSeen,
		}
		if events := c.tasks + c.commands; events > 0 {
			st.ErrorRate = float64(c.tasksFailed+c.commandErrors) / float64(events)
		}
		if totalBytes > 0 {
			st.Share = float64(c.bytes) / float64(totalBytes)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].DN < out[j].DN
	})
	if len(out) > k {
		out = out[:k]
	}
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}
