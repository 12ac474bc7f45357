package system

import (
	"fmt"

	"dqalloc/internal/workload"
)

// MigrationConfig enables mid-execution query migration — the paper's
// first future-work direction (Section 6.2): "moving partially executed
// queries from site to site at certain critical times ... probably
// between its primitive relational operations". Here the critical times
// are read/process cycle boundaries.
type MigrationConfig struct {
	// Enabled turns migration on.
	Enabled bool
	// CheckEvery is the number of completed cycles between migration
	// checks (checking after every page read would be unrealistically
	// aggressive for 1984 hardware).
	CheckEvery int
	// MinRemaining suppresses migration when fewer reads remain — the
	// move could never pay for itself.
	MinRemaining int
	// StateFactor scales the migration message: the state to move is the
	// query descriptor plus partially accumulated results, so the message
	// size is MsgLength × StateFactor.
	StateFactor float64
	// Threshold is the minimum fractional improvement in estimated
	// remaining response time required to migrate (hysteresis against
	// thrashing).
	Threshold float64
}

// DefaultMigration returns a conservative migration setting: check every
// 5 cycles, require 5 remaining reads and a 30% estimated improvement,
// and ship twice the query-descriptor size as state.
func DefaultMigration() MigrationConfig {
	return MigrationConfig{
		Enabled:      true,
		CheckEvery:   5,
		MinRemaining: 5,
		StateFactor:  2,
		Threshold:    0.3,
	}
}

// validate reports the first migration-config error, if any.
func (m MigrationConfig) validate() error {
	if !m.Enabled {
		return nil
	}
	switch {
	case m.CheckEvery < 1:
		return fmt.Errorf("system: migration CheckEvery %d < 1", m.CheckEvery)
	case m.MinRemaining < 1:
		return fmt.Errorf("system: migration MinRemaining %d < 1", m.MinRemaining)
	case m.StateFactor < 0:
		return fmt.Errorf("system: negative migration StateFactor %v", m.StateFactor)
	case m.Threshold < 0:
		return fmt.Errorf("system: negative migration Threshold %v", m.Threshold)
	}
	return nil
}

// maybeMigrate is the site cycle hook: it estimates the remaining
// response time of q at its current site and at every other candidate,
// and moves the query when a strictly better site clears the threshold.
// It reports whether it took ownership of the query.
func (s *System) maybeMigrate(q *workload.Query) bool {
	m := s.cfg.Migration
	remaining := q.ReadsTotal - q.ReadsDone
	if remaining < m.MinRemaining || q.ReadsDone%m.CheckEvery != 0 {
		return false
	}

	// The remaining-work terms deliberately mix one observed quantity
	// with two estimated ones: `remaining` counts the reads actually left
	// (the executing site knows its own progress exactly), but the
	// per-page costs come from the optimizer's EstPageCPU and the mean
	// DiskTime — a migration decision is an allocation decision and sees
	// the same imperfect information, so injected estimation error
	// (internal/noise) propagates to migration exactly as it does to the
	// initial placement.
	remCPU := float64(remaining) * q.EstPageCPU
	remIO := float64(remaining) * s.cfg.DiskTime
	costAt := func(site int) float64 {
		view := s.env.View
		cpuWait := remCPU * float64(view.NumCPUQueries(site))
		ioWait := remIO * float64(view.NumIOQueries(site)) / float64(s.cfg.NumDisks)
		return remCPU + cpuWait + remIO + ioWait
	}

	migSize := s.cfg.Classes[q.Class].MsgLength * m.StateFactor
	migTime := s.ring.TransmitTime(migSize)
	cur := costAt(q.Exec)

	best, bestCost := -1, cur
	candidates := s.candidateSites(q)
	for _, site := range candidates {
		if site == q.Exec || !s.up(site) {
			continue
		}
		if c := costAt(site) + migTime; c < bestCost {
			best, bestCost = site, c
		}
	}
	if best < 0 || bestCost > cur*(1-m.Threshold) {
		return false
	}

	// The query leaves its current site and is re-committed to the
	// target while its state is in flight; like any shipment, a
	// migration losing its state restarts from scratch.
	from := q.Exec
	s.release(q)
	s.commit(q, best)
	q.Migrations++
	s.migrations++
	s.ship(q, from, migSize)
	return true
}

// candidateSites returns the sites allowed to execute q — the live copy
// holders when the replica manager runs, the static placement otherwise.
func (s *System) candidateSites(q *workload.Query) []int {
	if s.repl != nil {
		return s.repl.mgr.Candidates(q.Object)
	}
	if s.cfg.Placement != nil {
		return s.cfg.Placement.Candidates(q.Object)
	}
	return s.everySite()
}

// everySite returns the cached list of all site indices.
func (s *System) everySite() []int {
	if s.allSites == nil {
		s.allSites = make([]int, s.cfg.NumSites)
		for i := range s.allSites {
			s.allSites[i] = i
		}
	}
	return s.allSites
}
