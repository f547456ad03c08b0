// Package sim drives slot-by-slot online simulations of EOTORA
// controllers and records the metric time series the paper's evaluation
// plots: overall latency, energy cost, virtual-queue backlog, electricity
// price, decision wall-clock time, and solver work.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"eotora/internal/policy"
	"eotora/internal/stats"
	"eotora/internal/trace"
)

// Config bounds a simulation run.
type Config struct {
	// Slots is the number of slots to simulate.
	Slots int
	// Warmup is the number of leading slots excluded from the summary
	// averages (the queue's convergence transient in Figure 7).
	Warmup int
	// RecordPerDevice additionally stores every device's latency each
	// slot (Metrics.PerDevice), enabling tail-latency analysis at the
	// price of O(slots × devices) memory.
	RecordPerDevice bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("sim: need at least one slot, got %d", c.Slots)
	}
	if c.Warmup < 0 || c.Warmup >= c.Slots {
		return fmt.Errorf("sim: warmup %d outside [0, %d)", c.Warmup, c.Slots)
	}
	return nil
}

// Metrics holds per-slot series from one run. All slices share the same
// length (the number of simulated slots).
type Metrics struct {
	// Policy identifies the decision policy that produced the run
	// ("bdma", "greedy-energy", ...; see internal/policy).
	Policy string
	// Solver identifies the policy's P2-A algorithm, or "" for baseline
	// policies that run no solver.
	Solver string
	// V is the controller's penalty weight.
	V float64
	// Budget is the system's per-slot cost budget C̄ in dollars.
	Budget float64
	// Warmup is the number of slots excluded from summary averages.
	Warmup int

	Latency          []float64       // T_t seconds
	CommLatency      []float64       // communication part of T_t
	ProcLatency      []float64       // processing part of T_t
	Fairness         []float64       // Jain index over per-device latencies
	EnergyCost       []float64       // C_t dollars
	Theta            []float64       // C_t − C̄
	Backlog          []float64       // Q(t+1)
	Price            []float64       // p_t $/MWh
	SolverIterations []int           // P2-A work per slot
	DecisionTime     []time.Duration // wall clock per slot
	Rung             []int           // fallback-ladder rung (0 = full solve)
	ActiveDevices    []int           // population size after the slot's churn
	ActiveServers    []int           // servers present after the slot's churn
	ChurnEvents      []int           // churn events applied this slot
	ShardGap         []float64       // sharded-vs-unsharded gap (NaN = slot not audited)

	// PerDevice[t][i] is device i's latency at slot t; non-nil only when
	// Config.RecordPerDevice was set.
	PerDevice [][]float64

	// start is the policy's slot before the run's first decision, so a
	// run resumed from a checkpoint numbers its rows after the slots
	// already decided.
	start           int
	recordPerDevice bool
}

// Slots returns the number of recorded slots.
func (m *Metrics) Slots() int { return len(m.Latency) }

func (m *Metrics) steady(series []float64) []float64 {
	if m.Warmup >= len(series) {
		return nil
	}
	return series[m.Warmup:]
}

// AvgLatency returns the post-warmup time-average latency.
func (m *Metrics) AvgLatency() float64 { return stats.Mean(m.steady(m.Latency)) }

// AvgCost returns the post-warmup time-average energy cost.
func (m *Metrics) AvgCost() float64 { return stats.Mean(m.steady(m.EnergyCost)) }

// AvgBacklog returns the post-warmup time-average backlog.
func (m *Metrics) AvgBacklog() float64 { return stats.Mean(m.steady(m.Backlog)) }

// AvgShardGap returns the mean sharded-vs-unsharded optimality gap over
// the audited slots (core.Controller.SetShardAudit), or NaN when no slot
// was audited.
func (m *Metrics) AvgShardGap() float64 {
	sum, n := 0.0, 0
	for _, g := range m.ShardGap {
		if !math.IsNaN(g) {
			sum += g
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// AuditedSlots returns how many recorded slots ran the shard audit.
func (m *Metrics) AuditedSlots() int {
	n := 0
	for _, g := range m.ShardGap {
		if !math.IsNaN(g) {
			n++
		}
	}
	return n
}

// AvgDecisionTime returns the mean per-slot decision wall time.
func (m *Metrics) AvgDecisionTime() time.Duration {
	if len(m.DecisionTime) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range m.DecisionTime {
		total += d
	}
	return total / time.Duration(len(m.DecisionTime))
}

// DegradedSlots returns how many recorded slots were decided below the
// full-solve rung (SlotResult.Degraded), the headline degradation rate of
// a deadline or fault study.
func (m *Metrics) DegradedSlots() int {
	n := 0
	for _, r := range m.Rung {
		if r > 0 {
			n++
		}
	}
	return n
}

// BudgetSatisfied reports whether the post-warmup average cost stays
// within (1+slack) of the budget.
func (m *Metrics) BudgetSatisfied(slack float64) bool {
	return m.AvgCost() <= m.Budget*(1+slack)
}

// WriteCSV streams the per-slot series as CSV (the schema table in
// OPERATIONS.md §1 documents every column). The slot column is the
// policy's own slot index, so a resumed run continues the numbering of
// the run it resumes. The trailing policy column
// makes comparison runs self-describing when their CSVs are
// concatenated.
func (m *Metrics) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "slot,latency_s,cost_usd,theta,backlog,price_mwh,solver_iters,decision_us,degraded,rung,active_devices,active_servers,churn_events,policy\n"); err != nil {
		return err
	}
	for i := range m.Latency {
		degraded := 0
		if m.Rung[i] > 0 {
			degraded = 1
		}
		row := strconv.Itoa(m.start+i+1) + "," +
			strconv.FormatFloat(m.Latency[i], 'g', 10, 64) + "," +
			strconv.FormatFloat(m.EnergyCost[i], 'g', 10, 64) + "," +
			strconv.FormatFloat(m.Theta[i], 'g', 10, 64) + "," +
			strconv.FormatFloat(m.Backlog[i], 'g', 10, 64) + "," +
			strconv.FormatFloat(m.Price[i], 'g', 10, 64) + "," +
			strconv.Itoa(m.SolverIterations[i]) + "," +
			strconv.FormatInt(m.DecisionTime[i].Microseconds(), 10) + "," +
			strconv.Itoa(degraded) + "," +
			strconv.Itoa(m.Rung[i]) + "," +
			strconv.Itoa(m.ActiveDevices[i]) + "," +
			strconv.Itoa(m.ActiveServers[i]) + "," +
			strconv.Itoa(m.ChurnEvents[i]) + "," +
			m.Policy + "\n"
		if _, err := io.WriteString(w, row); err != nil {
			return err
		}
	}
	return nil
}

// Run simulates the policy against the state source for cfg.Slots
// slots. Any policy.Policy drives — the flagship *core.Controller, the
// comparison baselines, or the auto-tuner. Steady-state slots of the
// controller are allocation-light: it reuses one P2A instance (the game
// arena is rebuilt in place each slot and only reweighted between BDMA
// rounds) and one solve engine, and prices each BDMA round from that
// game's loads, so per-slot heap work is dominated by the recorded
// metrics, not the solve.
func Run(p policy.Policy, src trace.Source, cfg Config) (*Metrics, error) {
	if p == nil {
		return nil, errors.New("sim: nil policy")
	}
	if src == nil {
		return nil, errors.New("sim: nil state source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newMetrics(p, cfg)
	for s := 0; s < cfg.Slots; s++ {
		if err := m.step(p, src, s); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func newMetrics(p policy.Policy, cfg Config) *Metrics {
	solver := ""
	if sn, ok := p.(policy.SolverNamer); ok {
		solver = sn.SolverName()
	}
	return &Metrics{
		Policy:           p.Name(),
		Solver:           solver,
		V:                p.V(),
		Budget:           p.System().Budget.Dollars(),
		Warmup:           cfg.Warmup,
		Latency:          make([]float64, 0, cfg.Slots),
		CommLatency:      make([]float64, 0, cfg.Slots),
		ProcLatency:      make([]float64, 0, cfg.Slots),
		Fairness:         make([]float64, 0, cfg.Slots),
		EnergyCost:       make([]float64, 0, cfg.Slots),
		Theta:            make([]float64, 0, cfg.Slots),
		Backlog:          make([]float64, 0, cfg.Slots),
		Price:            make([]float64, 0, cfg.Slots),
		SolverIterations: make([]int, 0, cfg.Slots),
		DecisionTime:     make([]time.Duration, 0, cfg.Slots),
		Rung:             make([]int, 0, cfg.Slots),
		ActiveDevices:    make([]int, 0, cfg.Slots),
		ActiveServers:    make([]int, 0, cfg.Slots),
		ChurnEvents:      make([]int, 0, cfg.Slots),
		ShardGap:         make([]float64, 0, cfg.Slots),
		start:            p.Slot(),
		recordPerDevice:  cfg.RecordPerDevice,
	}
}

// step advances one slot and records its metrics. The slot index passed
// to Decide continues the policy's own numbering, so a policy restored
// from a checkpoint resumes mid-sequence without renumbering.
func (m *Metrics) step(p policy.Policy, src trace.Source, s int) error {
	st := src.Next()
	res, err := p.Decide(p.Slot()+1, st)
	if err != nil {
		return fmt.Errorf("sim: slot %d: %w", s+1, err)
	}
	m.Latency = append(m.Latency, res.Latency.Value())
	comm, proc := res.Split()
	m.CommLatency = append(m.CommLatency, comm.Value())
	m.ProcLatency = append(m.ProcLatency, proc.Value())
	m.Fairness = append(m.Fairness, res.Fairness())
	m.EnergyCost = append(m.EnergyCost, res.EnergyCost.Dollars())
	m.Theta = append(m.Theta, res.Theta)
	m.Backlog = append(m.Backlog, res.Backlog)
	m.Price = append(m.Price, st.Price.PerMWh())
	m.SolverIterations = append(m.SolverIterations, res.SolverIterations)
	m.DecisionTime = append(m.DecisionTime, res.Elapsed)
	m.Rung = append(m.Rung, res.Rung)
	_, _, servers, devices := p.System().Net.Counts()
	m.ActiveDevices = append(m.ActiveDevices, st.ActiveDevices(devices))
	m.ActiveServers = append(m.ActiveServers, st.ActiveServers(servers))
	m.ChurnEvents = append(m.ChurnEvents, len(st.Churn))
	gap := math.NaN()
	if res.ShardAudited {
		gap = res.ShardGap
	}
	m.ShardGap = append(m.ShardGap, gap)
	if m.recordPerDevice {
		row := make([]float64, len(res.PerDevice))
		for i, lb := range res.PerDevice {
			row[i] = lb.Total().Value()
		}
		m.PerDevice = append(m.PerDevice, row)
	}
	return nil
}

// DeviceLatencyQuantile returns the q-quantile of all recorded per-device
// latencies after warmup. It returns NaN unless RecordPerDevice was set.
func (m *Metrics) DeviceLatencyQuantile(q float64) float64 {
	if len(m.PerDevice) == 0 {
		return math.NaN()
	}
	var all []float64
	for t := m.Warmup; t < len(m.PerDevice); t++ {
		all = append(all, m.PerDevice[t]...)
	}
	return stats.Quantile(all, q)
}

// RunAll simulates several policies over the *same* recorded state
// sequence, the apples-to-apples setup of Figure 9 and the policy
// comparison figure. The source is drawn once and replayed for every
// policy.
func RunAll(policies []policy.Policy, src trace.Source, cfg Config) ([]*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	states := trace.Record(src, cfg.Slots)
	out := make([]*Metrics, 0, len(policies))
	for i, p := range policies {
		replay, err := trace.NewReplay(states, src.Period())
		if err != nil {
			return nil, err
		}
		m, err := Run(p, replay, cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: policy %d (%s): %w", i, p.Name(), err)
		}
		out = append(out, m)
	}
	return out, nil
}
