package queue

import (
	"dqalloc/internal/rng"
	"dqalloc/internal/sim"
)

// DiskSelection chooses which disk of a site serves a page read.
type DiskSelection int

const (
	// SelectRandom sends each read to a uniformly random disk. This is the
	// default: it matches the equal-visit-ratio structure assumed by the
	// paper's Section 3 mean-value analysis.
	SelectRandom DiskSelection = iota + 1
	// SelectShortestQueue sends each read to the disk with the fewest
	// queued requests, breaking ties by lowest disk index.
	SelectShortestQueue
)

// String returns the selection policy's name.
func (d DiskSelection) String() string {
	switch d {
	case SelectRandom:
		return "random"
	case SelectShortestQueue:
		return "shortest-queue"
	default:
		return "unknown"
	}
}

// DiskArray models a site's storage hardware: num_disks independent FCFS
// servers (Section 2, Table 1). Reads are dispatched to one disk according
// to the configured selection rule.
type DiskArray[T any] struct {
	disks  []FCFS[T]
	pick   DiskSelection
	stream rng.Stream
}

// NewDiskArray builds an array of n FCFS disks. A copy of stream drives
// the random selection rule (it may be nil when pick is
// SelectShortestQueue). done is called on each completed read.
func NewDiskArray[T any](sched *sim.Scheduler, n int, pick DiskSelection, stream *rng.Stream, done func(T)) *DiskArray[T] {
	if n <= 0 {
		panic("queue: disk array needs at least one disk")
	}
	d := new(DiskArray[T])
	d.Init(sched, make([]FCFS[T], n), pick, stream, done)
	return d
}

// Init makes d an idle array in place over the disks of storage, one per
// element, so an owner can hold the array by value and place many arrays'
// disks on one backing slice. The array takes over storage and draws
// from a copy of stream, as NewDiskArray does. The disks bind their
// completion actions to their own addresses: storage must not be copied
// or reused after Init.
func (d *DiskArray[T]) Init(sched *sim.Scheduler, storage []FCFS[T], pick DiskSelection, stream *rng.Stream, done func(T)) {
	if len(storage) == 0 {
		panic("queue: disk array needs at least one disk")
	}
	if pick == SelectRandom && stream == nil {
		panic("queue: random disk selection needs a stream")
	}
	*d = DiskArray[T]{disks: storage, pick: pick}
	if stream != nil {
		d.stream = *stream
	}
	for i := range d.disks {
		d.disks[i].Init(sched, done)
	}
}

// Enqueue dispatches one read with the given service time to a disk.
func (d *DiskArray[T]) Enqueue(job T, service float64) {
	d.disks[d.choose()].Enqueue(job, service)
}

// Drain empties every disk without completing any read, returning the
// lost jobs in disk-index order (within a disk, queue order). See
// FCFS.Drain.
func (d *DiskArray[T]) Drain() []T {
	var out []T
	for i := range d.disks {
		out = append(out, d.disks[i].Drain()...)
	}
	return out
}

// RemoveFunc withdraws the first matching read across the disks (in
// disk-index order) without completing it. See FCFS.RemoveFunc.
func (d *DiskArray[T]) RemoveFunc(match func(T) bool) (T, bool) {
	for i := range d.disks {
		if job, ok := d.disks[i].RemoveFunc(match); ok {
			return job, true
		}
	}
	var zero T
	return zero, false
}

// SetRate changes every disk's speed; in-service reads are re-timed so
// only their remaining work stretches. See FCFS.SetRate.
func (d *DiskArray[T]) SetRate(rate float64) {
	for i := range d.disks {
		d.disks[i].SetRate(rate)
	}
}

// NumDisks returns the number of disks in the array.
func (d *DiskArray[T]) NumDisks() int { return len(d.disks) }

// QueueLen returns the total number of reads present across all disks.
func (d *DiskArray[T]) QueueLen() int {
	total := 0
	for i := range d.disks {
		total += d.disks[i].QueueLen()
	}
	return total
}

// Served returns the total reads completed across all disks.
func (d *DiskArray[T]) Served() uint64 {
	var total uint64
	for i := range d.disks {
		total += d.disks[i].Served()
	}
	return total
}

// Utilization returns the mean busy fraction across disks over the stats
// window ending at t.
func (d *DiskArray[T]) Utilization(t float64) float64 {
	sum := 0.0
	for i := range d.disks {
		sum += d.disks[i].Utilization(t)
	}
	return sum / float64(len(d.disks))
}

// ResetStats restarts every disk's measurement window at t.
func (d *DiskArray[T]) ResetStats(t float64) {
	for i := range d.disks {
		d.disks[i].ResetStats(t)
	}
}

func (d *DiskArray[T]) choose() int {
	switch d.pick {
	case SelectShortestQueue:
		best := 0
		for i := 1; i < len(d.disks); i++ {
			if d.disks[i].QueueLen() < d.disks[best].QueueLen() {
				best = i
			}
		}
		return best
	default:
		return d.stream.Intn(len(d.disks))
	}
}
