package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestParseFaultPlanRoundTrip(t *testing.T) {
	for _, src := range []string{
		"",
		"seed=7",
		"seed=7,delay=0.2/5ms",
		"seed=9,drop=0.1/4,dup=0.05",
		"seed=3,delay=0.25/1ms,drop=0.5/2,dup=0.125,reorder=0.5,timeout=2s",
		"seed=1,kill=1@500,kill=3@0",
	} {
		plan, err := ParseFaultPlan(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		again, err := ParseFaultPlan(plan.String())
		if err != nil {
			t.Fatalf("re-parse %q (of %q): %v", plan.String(), src, err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Errorf("round trip of %q: %+v != %+v", src, plan, again)
		}
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	for _, src := range []string{
		"bogus",
		"frequency=0.5",
		"seed=notanumber",
		"delay=1.5",
		"delay=-0.1",
		"delay=0.5/xyz",
		"drop=0.5/0",
		"drop=0.5/-2",
		"dup=2",
		"reorder=nope",
		"timeout=fast",
		"kill=1",
		"kill=a@5",
		"kill=1@-3",
	} {
		if _, err := ParseFaultPlan(src); err == nil {
			t.Errorf("plan %q accepted", src)
		}
	}
}

func TestFaultPlanActive(t *testing.T) {
	if _, ok := WithFaults(NewLocalCluster(1)[0], FaultPlan{}).(*localComm); !ok {
		t.Error("inactive plan did not return the inner transport")
	}
	for _, p := range []FaultPlan{
		{DelayProb: 0.1},
		{DropProb: 0.1},
		{DupProb: 0.1},
		{ReorderProb: 0.1},
		{RecvTimeout: time.Second},
		{Crashes: []RankCrash{{Rank: 0, AfterSends: 5}}},
	} {
		c := WithFaults(NewLocalCluster(1)[0], p)
		if _, ok := c.(*localComm); ok {
			t.Errorf("plan %+v left the transport undecorated", p)
		}
		c.Close()
	}
}

// chaosPlan is the heavy-fault reference plan the FIFO and determinism
// tests share.
func chaosPlan(seed uint64) FaultPlan {
	return FaultPlan{
		Seed:      seed,
		DelayProb: 0.1, MaxDelay: 200 * time.Microsecond,
		DropProb: 0.3, MaxRedeliver: 3,
		DupProb:     0.3,
		ReorderProb: 0.3,
	}
}

func TestFaultyPreservesFIFO(t *testing.T) {
	// The Comm contract — reliable per-(src, tag) FIFO — must survive heavy
	// duplication, loss and reordering, on several tags at once.
	const n = 200
	runSPMDPlan(t, 2, chaosPlan(7), func(c Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				for _, tag := range []int{3, 8} {
					if err := c.Send(1, tag, []byte{byte(i), byte(tag)}); err != nil {
						return err
					}
				}
			}
			// A receive flushes any still-held reordered envelope.
			if _, err := c.Recv(1, 1); err != nil {
				return err
			}
			return nil
		}
		for i := 0; i < n; i++ {
			for _, tag := range []int{3, 8} {
				msg, err := c.Recv(0, tag)
				if err != nil {
					return err
				}
				if len(msg) != 2 || msg[0] != byte(i) || msg[1] != byte(tag) {
					return fmt.Errorf("tag %d message %d: got %v", tag, i, msg)
				}
			}
		}
		return c.Send(0, 1, []byte("done"))
	})
}

func TestFaultyInjectsAndCounts(t *testing.T) {
	// With aggressive probabilities and hundreds of messages, every fault
	// kind must actually fire and be counted.
	comms := NewLocalCluster(2)
	var wg sync.WaitGroup
	var sendStats CommStats
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := WithFaults(comms[0], chaosPlan(11))
		defer c.Close()
		for i := 0; i < 300; i++ {
			if err := c.Send(1, 4, []byte{byte(i)}); err != nil {
				errs[0] = err
				return
			}
		}
		if _, err := c.Recv(1, 5); err != nil {
			errs[0] = err
			return
		}
		sendStats = StatsOf(c)
	}()
	go func() {
		defer wg.Done()
		c := WithFaults(comms[1], chaosPlan(11))
		defer c.Close()
		for i := 0; i < 300; i++ {
			msg, err := c.Recv(0, 4)
			if err != nil {
				errs[1] = err
				return
			}
			if msg[0] != byte(i) {
				errs[1] = fmt.Errorf("message %d: got %d", i, msg[0])
				return
			}
		}
		errs[1] = c.Send(0, 5, nil)
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !sendStats.Injected() {
		t.Fatalf("no faults injected: %+v", sendStats)
	}
	for name, v := range map[string]int64{
		"delays":   sendStats.DelaysInjected,
		"drops":    sendStats.DropsInjected,
		"dups":     sendStats.DupsInjected,
		"reorders": sendStats.ReordersInjected,
	} {
		if v == 0 {
			t.Errorf("%s never injected over 300 sends at p=0.3: %+v", name, sendStats)
		}
	}
	if m := sendStats.Map(); m["mpi/drops-injected"] != sendStats.DropsInjected {
		t.Errorf("Map() = %v does not carry DropsInjected %d", m, sendStats.DropsInjected)
	}
}

func TestFaultyDeterministicSchedule(t *testing.T) {
	// Same plan seed, same workload: the injected-fault schedule (and so
	// every counter) must replay exactly. Retries are excluded — they
	// depend on wall-clock I/O timing, not the plan.
	run := func() CommStats {
		var st CommStats
		runSPMDPlan(t, 3, chaosPlan(21), func(c Comm) error {
			for round := 0; round < 10; round++ {
				buf := []int64{int64(c.Rank() + round)}
				if err := AllReduce(c, buf); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				st = StatsOf(c)
			}
			return nil
		})
		st.Retries = 0
		return st
	}
	a, b := run(), run()
	if !a.Injected() {
		t.Fatalf("no faults injected: %+v", a)
	}
	if a != b {
		t.Fatalf("same plan, different schedules:\n  first  %+v\n  second %+v", a, b)
	}
}

func TestFaultyCrashAllReduceLocal(t *testing.T) {
	// Rank 2 dies mid-collective. Every rank — victim and survivors — must
	// get a RankFailedError within the plan's receive timeout, never hang.
	const p, victim = 4, 2
	plan := FaultPlan{
		Seed:        5,
		RecvTimeout: 250 * time.Millisecond,
		Crashes:     []RankCrash{{Rank: victim, AfterSends: 10}},
	}
	start := time.Now()
	comms := NewLocalCluster(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := WithFaults(comms[rank], plan)
			for round := 0; round < 1000; round++ {
				buf := []int64{int64(rank)}
				if err := AllReduce(c, buf); err != nil {
					errs[rank] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("crash detection took %v", el)
	}
	for r, err := range errs {
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			t.Fatalf("rank %d: %v, want RankFailedError", r, err)
		}
		if rf.Rank < 0 || rf.Rank >= p {
			t.Fatalf("rank %d blames out-of-range rank %d", r, rf.Rank)
		}
	}
	if !errors.Is(errs[victim], ErrInjectedCrash) {
		t.Errorf("victim's error %v does not carry ErrInjectedCrash", errs[victim])
	}
}

func TestFaultyCrashAllReduceTCP(t *testing.T) {
	// Same scenario over real sockets: connection teardown is the primary
	// failure detector, the receive timeout only a backstop.
	const p, victim = 3, 1
	plan := FaultPlan{
		Seed:        6,
		RecvTimeout: 500 * time.Millisecond,
		Crashes:     []RankCrash{{Rank: victim, AfterSends: 8}},
	}
	addrs := freeAddrs(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			inner, err := DialTCP(TCPConfig{Rank: rank, Addrs: addrs})
			if err != nil {
				errs[rank] = err
				return
			}
			c := WithFaults(inner, plan)
			defer c.Close()
			for round := 0; round < 1000; round++ {
				buf := []int64{int64(rank)}
				if err := AllReduce(c, buf); err != nil {
					errs[rank] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			t.Fatalf("rank %d: %v, want RankFailedError", r, err)
		}
	}
	if !errors.Is(errs[victim], ErrInjectedCrash) {
		t.Errorf("victim's error %v does not carry ErrInjectedCrash", errs[victim])
	}
}

func TestFaultyStatsMergeInnerTransport(t *testing.T) {
	// The decorator's CommStats must include the wrapped TCP transport's
	// counters (sends reach both layers).
	runTCPCluster(t, 2, func(inner Comm) error {
		c := WithFaults(inner, FaultPlan{Seed: 1, DupProb: 1})
		if c.Rank() == 0 {
			if err := c.Send(1, 2, []byte("x")); err != nil {
				return err
			}
			if _, err := c.Recv(1, 3); err != nil {
				return err
			}
			st := StatsOf(c)
			if st.DupsInjected == 0 {
				return fmt.Errorf("dup not injected: %+v", st)
			}
			// One logical send, duplicated: the TCP layer saw two frames, the
			// injector one message, so the merged count must exceed either.
			if st.Sends < 3 {
				return fmt.Errorf("merged sends %d, want >= 3 (injector + 2 wire frames)", st.Sends)
			}
			return nil
		}
		if _, err := c.Recv(0, 2); err != nil {
			return err
		}
		return c.Send(0, 3, nil)
	})
}
