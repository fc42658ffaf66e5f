package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// taskPeriod is the boundary spacing of the test daemon's loop.
const taskPeriod = time.Millisecond

// taskHolds are the test daemon's successive holds; 2.3 ms overruns the
// next boundary.
var taskHolds = []Time{200 * time.Microsecond, 450 * time.Microsecond, 2300 * time.Microsecond, 100 * time.Microsecond, 600 * time.Microsecond}

// logEntry is one (virtual time, actor) record of a scenario run.
type logEntry struct {
	at   Time
	what string
}

// taskScenario is a daemon loop and two ordinary processes sharing a
// 1-server resource.
type taskScenario struct {
	k   *Kernel
	r   *Resource
	log []logEntry
}

func (s *taskScenario) note(p *Proc, what string) {
	if s.log != nil {
		s.log = append(s.log, logEntry{p.Now(), what})
	}
}

// body is the daemon loop as a process body: sleep to the next
// boundary unless the last hold overran it, then acquire, hold and
// release the resource.
func (s *taskScenario) body(p *Proc) {
	next := 1
	for i := 0; ; i++ {
		if at := Time(next) * taskPeriod; p.Now() < at {
			p.Sleep(at - p.Now())
		}
		next = int(p.Now()/taskPeriod) + 1
		s.note(p, "daemon woke")
		s.r.Acquire(p)
		s.note(p, "daemon granted")
		p.Sleep(taskHolds[i%len(taskHolds)])
		s.r.Release()
		s.note(p, "daemon released")
	}
}

// The states of daemonTask, named for where a wake-up resumes the loop.
const (
	taskTop     = iota // the top of the loop
	taskWoken          // at the boundary
	taskGranted        // holding the server
	taskHeld           // the hold is over
)

// daemonTask is the same daemon loop as a task. It also counts which
// paths its waits took.
type daemonTask struct {
	s       *taskScenario
	i, next int
	state   int

	wakes, fast, queued, overran int
}

func (d *daemonTask) step(p *Proc) {
	d.wakes++
	s := d.s
	for {
		switch d.state {
		case taskTop:
			d.state = taskWoken
			if at := Time(d.next) * taskPeriod; p.Now() >= at {
				d.overran++
			} else if p.Wake(at - p.Now()) {
				return
			} else {
				d.fast++
			}
		case taskWoken:
			d.next = int(p.Now()/taskPeriod) + 1
			s.note(p, "daemon woke")
			d.state = taskGranted
			if s.r.AcquireTask(p) {
				d.queued++
				return
			}
		case taskGranted:
			s.note(p, "daemon granted")
			d.state = taskHeld
			if p.Wake(taskHolds[d.i%len(taskHolds)]) {
				return
			}
			d.fast++
		case taskHeld:
			s.r.Release()
			s.note(p, "daemon released")
			d.i++
			d.state = taskTop
		}
	}
}

// runTaskScenario runs the daemon — as a task when asTask is set, else
// as a process — next to two users of its resource, and returns the
// scenario, the task (nil for the process run) and the final sequence
// counter.
func runTaskScenario(t *testing.T, asTask bool) (*taskScenario, *daemonTask, int64) {
	t.Helper()
	k := New(1)
	s := &taskScenario{k: k, r: NewResource(k, "r", 1), log: []logEntry{}}
	var d *daemonTask
	if asTask {
		d = &daemonTask{s: s, next: 1}
		k.SpawnTask("daemon", d.step)
	} else {
		k.SpawnDaemon("daemon", s.body)
	}
	// Both users stay idle for the first boundaries, so the daemon's
	// waits there have no earlier event and take the fast path.
	k.Spawn("user-a", func(p *Proc) {
		p.Sleep(4 * taskPeriod)
		for j := 0; j < 12; j++ {
			p.Sleep(Time(300+137*j%500) * time.Microsecond)
			s.note(p, "a wants")
			s.r.Use(p, 700*time.Microsecond)
			s.note(p, "a done")
		}
	})
	k.Spawn("user-b", func(p *Proc) {
		p.Sleep(6*taskPeriod + 250*time.Microsecond)
		for j := 0; j < 6; j++ {
			s.r.Use(p, 1500*time.Microsecond)
			s.note(p, "b done")
			p.Sleep(Time(j) * 400 * time.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return s, d, k.seq
}

// TestTaskMatchesProcess runs one scenario twice, with the daemon loop
// written once as a process body and once as a task, and requires the
// same (virtual time, actor) log, the same number of dispatched events
// and the same final sequence counter. The task run must take each
// path at least once: the inline fast path, a queued acquire woken
// holding the server, and a hold that overruns the next boundary.
func TestTaskMatchesProcess(t *testing.T) {
	ps, _, pseq := runTaskScenario(t, false)
	ts, d, tseq := runTaskScenario(t, true)
	if !slices.Equal(ps.log, ts.log) {
		t.Errorf("logs differ:\nprocess %v\ntask    %v", ps.log, ts.log)
	}
	if pd, td := ps.k.Dispatched(), ts.k.Dispatched(); pd != td {
		t.Errorf("dispatched %d events as a process, %d as a task", pd, td)
	}
	if pseq != tseq {
		t.Errorf("final sequence %d as a process, %d as a task", pseq, tseq)
	}
	t.Logf("%d log entries, %d events; task paths: fast %d, queued %d, overran %d",
		len(ts.log), ts.k.Dispatched(), d.fast, d.queued, d.overran)
	if d.fast == 0 || d.queued == 0 || d.overran == 0 {
		t.Errorf("paths taken: fast %d, queued %d, overran %d; want each at least once",
			d.fast, d.queued, d.overran)
	}
}

// TestTaskWakeAllocFree pins 0 allocations per task wake-up: a process
// contends with the task for the resource and sleeps a period per
// measured round, during which the task wakes, acquires, holds and
// releases.
func TestTaskWakeAllocFree(t *testing.T) {
	k := New(1)
	s := &taskScenario{k: k, r: NewResource(k, "r", 1)}
	d := &daemonTask{s: s, next: 1}
	k.SpawnTask("daemon", d.step)
	var allocs float64
	var wakes int
	k.Spawn("user", func(p *Proc) {
		round := func() {
			s.r.Use(p, 300*time.Microsecond)
			p.Sleep(taskPeriod - 300*time.Microsecond)
		}
		for i := 0; i < 100; i++ {
			round() // grow the heap and wait-queue storage
		}
		before := d.wakes
		allocs = testing.AllocsPerRun(1000, round)
		wakes = d.wakes - before
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes < 1000 {
		t.Fatalf("task woke %d times in 1000 rounds, want at least one a round", wakes)
	}
	if allocs != 0 {
		t.Fatalf("task wake-up allocated %.2f objects per round, want 0", allocs)
	}
}

// TestTaskParkPanicNamesTask checks that a task step reaching a parking
// primitive panics with a message naming the task. The bystander's
// pending wake-up keeps Sleep off its fast path, which never parks.
func TestTaskParkPanicNamesTask(t *testing.T) {
	k := New(1)
	k.Spawn("bystander", func(p *Proc) { p.Sleep(time.Microsecond) })
	k.SpawnTask("sleepy", func(p *Proc) { p.Sleep(time.Millisecond) })
	got := recoverRun(k)
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, `task "sleepy" cannot park (sleep)`) {
		t.Fatalf("Run raised %v, want a panic naming task sleepy", got)
	}
}
