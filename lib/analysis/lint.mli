(** Determinism lint — a static source scanner for hazards that break
    bit-identical sweeps.

    PR 3 made determinism a load-bearing guarantee: a sweep's results
    are bit-identical at any [-j]. That only holds if simulation code
    never consults unordered or ambient state. This pass flags the
    hazard classes that have bitten (or would):

    - [hashtbl-iter]: [Hashtbl.iter]/[Hashtbl.fold] — iteration order
      depends on hash internals, so anything order-sensitive downstream
      (wire sends, indications, report text) diverges;
    - [poly-compare]: polymorphic [compare]/[Stdlib.compare]/
      [Hashtbl.hash] applied where a typed comparison belongs;
    - [random]: the global [Random] state (everything must draw from
      the seeded {!Dpu_engine.Rng});
    - [wall-clock]: [Unix.gettimeofday]/[Unix.time]/[Sys.time] in
      simulation code (virtual time comes from [Sim.now]);
    - [marshal]: [Marshal] outside the {!Dpu_runtime.Sweep} worker
      protocol;
    - [unix-io]: real socket calls ([Unix.socket]/[bind]/[sendto]/
      [recvfrom]/[select]/[connect]) outside the live runtime backend;
    - [spec-opaque]: a [Spec.opaque] declaration — an opaque spec
      makes the behavioural safe-update checker ({!Behaviour}) blind
      to the protocol's in-flight shapes, so every use needs a
      reasoned allow;
    - [registry-spec] (a structural pass, not a substring rule — see
      below): a [Registry.register] call that passes no [~spec]
      argument anywhere in the call site. Silent opacity is the
      failure mode this guards: a registration without a spec gets
      [None], and the composition verifier can only report it at
      check time for plans that update through it.

    [registry-spec] is not in {!rules}: substring rules cannot express
    "A without B nearby". It scans the same stripped source, honours
    the same suppression comments, and reports through the same
    {!finding} type with [f_rule = "registry-spec"].

    Exemptions come in two scopes: single files ([r_exempt], matched as
    path suffixes) and whole directories ([r_exempt_dirs], matched as
    path segments). [lib/live/] is directory-exempt from [wall-clock]
    and [unix-io] — the live backend is defined by real time and real
    sockets — and from nothing else; in particular the exemption does
    not extend to [lib/engine] or [lib/protocols].

    Matching runs on comment- and string-stripped source, so prose
    mentioning a pattern never fires. A finding on a line is silenced
    by a suppression comment on the same or the preceding line:

    {[ (* dpu-lint: allow <rule> — why this use is deterministic *) ]}

    The reason is mandatory: a suppression without one does not count
    (CI fails on any finding without a reasoned suppression). *)

type finding = {
  f_file : string;
  f_line : int;  (** 1-based *)
  f_rule : string;
  f_text : string;  (** the offending source line, trimmed *)
  f_message : string;
}

type rule = {
  r_id : string;
  r_patterns : string list;  (** literal substrings, matched on stripped code *)
  r_message : string;
  r_exempt : string list;
      (** path suffixes where the rule is off by design (e.g. [random]
          inside [engine/rng.ml], [marshal] inside
          [runtime/sweep.ml]) *)
  r_exempt_dirs : string list;
      (** path segments (e.g. ["lib/live/"]) under which the rule is
          off for every file *)
}

val rules : rule list
(** The built-in rule set, in reporting order. *)

val scan_source : file:string -> string -> finding list
(** Scan one file's contents. [file] selects rule exemptions and is
    recorded in findings. *)

val scan_paths : string list -> finding list
(** Recursively scan every [.ml] file under the given files and
    directories, in sorted path order. *)

val pp_finding : Format.formatter -> finding -> unit

val to_json : finding list -> Dpu_obs.Json.t
(** [dpu.lint/1] schema: top-level [ok] plus one record per finding. *)
