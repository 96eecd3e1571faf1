(** Human-readable reporting: patterns, epoch summaries, audit tables and
    ASCII coverage trajectories (the Figure 2 rendering). *)

val pp_pattern : Format.formatter -> Rule.t -> unit
(** Capitalised compact form over the pattern attributes, e.g.
    ["Referral:registration:nurse"]. *)

val pp_patterns : Format.formatter -> Rule.t list -> unit

val pp_epoch : Format.formatter -> Refinement.epoch_report -> unit

val pp_series : Format.formatter -> (string * float) list -> unit
(** One 40-column bar per (label, fraction) row:
    {v epoch 1  |############............| 48.0% v} *)

val pp_audit_table : Format.formatter -> Rule.t list -> unit
(** Renders audit rules in the paper's Table 1 layout. *)
