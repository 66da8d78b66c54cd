(** Behavioural specifications of shipped protocols.

    The registry's [provides]/[requires] metadata describes the
    {e structure} of a protocol; this module describes its
    {e behaviour}: which roles exchange which message kinds, as a small
    labelled transition system over the life of one broadcast, plus the
    ordering/delivery obligations the protocol promises its callers and
    the update-time capabilities its implementation actually has
    (epoch-tagged wire traffic, batch flush on supersession, ...).

    Specs are declared at each [Registry.register] site, next to the
    structural metadata, and consumed by the static safe-update checker
    ([Dpu_analysis.Behaviour]): the checker unfolds the old protocol's
    spec once (what can be in flight at the switch point), combines the
    unfolding with the new protocol's spec, and verifies that every
    obligation is still discharged across the swap — the 1-unfolding /
    combining construction of Castro-Perez & Yoshida's DMst, scaled
    down to the stack at hand.

    The type lives in the kernel so that protocol libraries can declare
    specs without depending on the analysis library. *)

(** What a protocol promises the modules above it. *)
type obligation =
  | Total_order  (** all nodes deliver in the same order *)
  | Exactly_once  (** no duplicate deliveries *)
  | Validity  (** an accepted payload is eventually delivered *)
  | Gap_free_gseq
      (** delivery consumes a gap-free global sequence; losing one wire
          message permanently blocks everything after it *)
  | Epoch_flush
      (** a superseded instance must not keep payloads parked in a
          partially-filled batch waiting for a fuller fill *)

val obligation_name : obligation -> string
(** Stable kebab-case name, e.g. ["total-order"], ["gap-free-gseq"]. *)

(** What an implementation can actually do across a generation switch.
    Layer capabilities describe the replacement indirection; protocol
    capabilities describe the variant's own wire discipline. *)
type capability =
  | Reissue_undelivered
      (** the layer re-issues accepted-but-undelivered payloads on the
          successor instance (Algorithm 1, lines 15–18) *)
  | Generation_filter
      (** the layer filters deliveries by generation number, so a
          re-issued payload cannot also arrive from the old instance *)
  | Quiesce_before_switch
      (** the layer blocks new work and drains before switching *)
  | Epoch_tagged_wire
      (** every wire message carries the sender's epoch and receivers
          drop other epochs' traffic *)
  | Epoch_flush_on_supersede
      (** a batching instance force-flushes its open batch the moment
          it observes a newer epoch *)
  | Buffer_future_epoch
      (** a passive module stashes wire traffic tagged with a future
          epoch and replays it once the stack reaches that epoch *)
  | Slot_scoped_rounds
      (** consensus instances run under identifiers scoped by
          generation slot, so two implementations can never decide the
          same instance *)

(** One message kind on the wire, attributed to the role that emits
    it. [k_payload] says the message carries (a batch of) application
    payloads, as opposed to pure control traffic. *)
type kind = { k_name : string; k_role : string; k_payload : bool }

val kind : ?payload:bool -> role:string -> string -> kind
(** [kind ~role name]: a control kind by default ([payload] false). *)

(** Transition labels of the per-broadcast LTS. [Emit]/[Recv] name a
    {!kind}; [Aggregate] parks the payload in an open batch of the
    named kind and [Flush] turns that batch into one wire message. *)
type label =
  | Accept  (** the application hands a payload to the protocol *)
  | Emit of string
  | Recv of string
  | Aggregate of string
  | Flush of string
  | Deliver  (** the payload is delivered to the application *)

type transition = { t_from : string; t_label : label; t_to : string }

val t : string -> label -> string -> transition
(** [t from label to_]: transition constructor, for compact spec
    declarations. *)

type t = {
  s_service : string;  (** the service the spec describes *)
  s_roles : string list;
  s_kinds : kind list;
  s_init : string;  (** initial (and quiescent) LTS state *)
  s_transitions : transition list;
  s_obligations : obligation list;
  s_capabilities : capability list;
  s_opaque : string option;
      (** [Some reason]: the protocol declares no behaviour; the
          safe-update checker refuses to reason about it *)
}

val make :
  service:string ->
  ?roles:string list ->
  ?kinds:kind list ->
  ?init:string ->
  ?transitions:transition list ->
  ?obligations:obligation list ->
  ?capabilities:capability list ->
  unit ->
  t
(** A behavioural spec; [init] defaults to ["idle"]. *)

val opaque : service:string -> string -> t
(** [opaque ~service reason]: an explicitly unspecified behaviour. The
    checker treats any update involving an opaque spec as unsafe, and
    the lint demands a reasoned [dpu-lint: allow] at any registration
    site that resorts to this. *)

val is_opaque : t -> bool

val has : t -> capability -> bool

val obliges : t -> obligation -> bool

val kind_named : t -> string -> kind option
