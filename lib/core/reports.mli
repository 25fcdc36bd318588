(** Printable reproductions of every figure and experiment table in the
    paper.  [bin/main.exe] (one subcommand per artifact, [all] for
    every one) is a thin wrapper over this module; each function writes
    an ASCII table or figure to stdout.

    The experiment index in DESIGN.md maps paper artifacts to these
    functions. *)

val print_figure1 : unit -> unit
(** Figure 1: the range query [1 <= X <= 3 & 0 <= Y <= 4] as a box. *)

val print_figure2 : unit -> unit
(** Figure 2: decomposition of that box, with z-value labels. *)

val print_figure3 : unit -> unit
(** Figure 3: the z values inside element 001 are consecutive. *)

val print_figure4 : unit -> unit
(** Figure 4: the z curve and the rank of [3, 5]. *)

val print_figure5 : unit -> unit
(** Figure 5: the range-search merge, traced step by step. *)

val print_figure6 : ?datasets:Sqp_workload.Datagen.dataset list -> unit -> unit
(** Figure 6 a/b/c: page-partition maps for U, C, D. *)

val print_range_experiment :
  ?config:Experiment.config -> Sqp_workload.Datagen.dataset -> unit
(** The Section 5.3.2 range-query table for one dataset. *)

val print_shape_sweep : ?config:Experiment.config -> unit -> unit
(** Aspect sweep at fixed volume: long-narrow vs square queries. *)

val print_structure_comparison :
  ?config:Experiment.config -> Sqp_workload.Datagen.dataset -> unit
(** zkd B+-tree vs bucket kd tree vs linear scan. *)

val print_partial_match : ?config:Experiment.config -> unit -> unit
(** Partial-match page accesses vs N with fitted exponent. *)

val print_strategy_comparison :
  ?config:Experiment.config -> Sqp_workload.Datagen.dataset -> unit
(** Ablation: Merge vs Lazy_merge vs Bigmin vs Scan on the same queries. *)

val print_euv_table : unit -> unit
(** Section 5.1: E(U,V) border sensitivity and cyclicity. *)

val print_coarsening : unit -> unit
(** Section 5.1: the boundary-expansion optimization trade-off. *)

val print_proximity : unit -> unit
(** Section 5.2: proximity preservation of z order. *)

val print_spatial_join : unit -> unit
(** Section 4: merge vs nested-loop spatial join costs. *)

val print_overlay_scaling : unit -> unit
(** Section 6 / 5.1: AG overlay (surface) vs grid overlay (volume) as
    resolution grows. *)

val print_ccl : unit -> unit
(** Section 6: connected component labelling on elements vs pixels. *)

val print_interference : unit -> unit
(** Section 6: interference detection via spatial join vs brute force. *)

val print_fill_factor :
  ?config:Experiment.config -> Sqp_workload.Datagen.dataset -> unit
(** Bulk-load fill-factor ablation: page count and per-query accesses as
    leaves are packed less tightly (the paper's 250-page tree is fill
    1.0). *)

val print_3d_experiment : unit -> unit
(** The "experiments in higher dimensions are still needed" follow-up:
    range and partial-match queries over 3d uniform data, with the
    k-dimensional block-model predictions (28/3 pages per block). *)

val print_curve_comparison : unit -> unit
(** Clustering ablation: pages holding the answers of square queries when
    points are packed in z order vs Hilbert order vs row-major order. *)

val print_object_join : unit -> unit
(** Disk-resident spatial join ({!Sqp_btree.Zobjects}): page accesses of
    the synchronized leaf-chain sweep vs the quadratic pairing it
    replaces. *)

val print_buffer_policies :
  ?config:Experiment.config -> Sqp_workload.Datagen.dataset -> unit
(** Section 4's buffering claim: physical reads under LRU / FIFO / CLOCK
    with a small pool, same query stream. *)

val run_all : unit -> unit
(** Everything above, in paper order. *)
