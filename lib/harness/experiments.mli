(** Reproduction of every table and figure of the paper's evaluation.

    Each function runs the corresponding experiment on the simulator and
    renders the result as text (ASCII charts/tables).  [fidelity]
    controls sweep density and simulated durations: [Quick] for smoke
    runs and CI, [Full] for the numbers recorded in EXPERIMENTS.md. *)

type fidelity = Quick | Full

type artifact = {
  text : string;  (** Rendered ASCII chart/table. *)
  metrics : (string * float) list;
      (** Headline scalars of the experiment, as dotted
          [experiment-local-key → value] pairs (e.g. ["gecko.geomean"]).
          Consumed by the benchmark harness's machine-readable export. *)
}

val fig4_dpi_sweep : fidelity -> artifact
(** DPI attack: forward-progress rate vs frequency at P1/P2 (ADC-based
    monitors, a representative device subset). *)

val fig5_remote_adc_sweep : fidelity -> artifact
(** Remote attack on all nine devices, ADC monitors. *)

val fig7_remote_comparator_sweep : fidelity -> artifact
(** Remote attack on the comparator-equipped devices. *)

val fig8_distance : fidelity -> artifact
(** Attack distance vs transmit power at the resonant frequency. *)

val fig9_realtime : fidelity -> artifact
(** Real-time attack control on MSP430FR5994: R(t) under a staged
    frequency schedule, for the ADC- and comparator-based monitors. *)

val table1 : fidelity -> artifact
(** Per-device minimum forward-progress rate (ADC and comparator) and
    maximum checkpoint-failure rate, with the frequencies they occur at. *)

val table2 : unit -> artifact
(** Qualitative comparison of prior EMI countermeasures (static). *)

val fig11_overhead_no_outage : fidelity -> artifact
(** Normalized execution time of Ratchet / GECKO w/o pruning / GECKO over
    NVP on continuous power, per workload. *)

val fig12_checkpoint_reduction : fidelity -> artifact
(** Static checkpoint stores, unpruned vs pruned, per workload. *)

val fig13_attack_scenarios : fidelity -> artifact
(** Detection-and-recovery timelines: six attack patterns, three schemes,
    throughput per (compressed) minute. *)

val fig14_harvesting_overhead : fidelity -> artifact
(** Normalized execution time in an RF energy-harvesting environment. *)

val fig15_capacitor_sweep : fidelity -> artifact
(** Total execution time vs capacitor size (1/2/5/10 mF), NVP vs GECKO. *)

val table3_checkpoint_stores : fidelity -> artifact
(** Static checkpoint stores generated by GECKO per application. *)

val ablation : fidelity -> artifact
(** Beyond the paper: contribution of the two pruning mechanisms
    (recovery-block slices vs redundant-checkpoint reuse) to the
    overhead reduction. *)

val budget_sweep : fidelity -> artifact
(** Beyond the paper: sensitivity of GECKO's overhead to the WCET
    region budget (the charge-cycle sizing knob of Section VI-B). *)

val detection_latency : fidelity -> artifact
(** Beyond the paper: time from attack onset to reactive detection. *)

val artifacts : (string * (fidelity -> artifact)) list
(** Every artifact generator keyed by name, in paper order, plus the
    beyond-the-paper studies.  Unlike {!all_artifacts} nothing is
    computed until a generator is applied, so callers can regenerate a
    single artifact or time each one individually. *)

val all_artifacts : fidelity -> (string * artifact) list
(** Every artifact, in paper order, plus the beyond-the-paper studies. *)

val all : fidelity -> (string * string) list
(** [all_artifacts] projected to (name, rendered text) — the shape the
    CLI's [experiments] command consumes. *)
