(* Behavioural safe-update checker: 1-unfolding of the old spec,
   ♢-style combination with the new spec under the layer's
   capabilities. See behaviour.mli. *)

open Dpu_kernel

type pending =
  | P_deliver
  | P_wire of Spec.kind
  | P_batch of Spec.kind

type shape = {
  sh_state : string;
  sh_pending : pending list;
  sh_trace : string list;
}

let pending_key = function
  | P_deliver -> "deliver"
  | P_wire k -> "wire:" ^ k.Spec.k_name
  | P_batch k -> "batch:" ^ k.Spec.k_name

let pending_name = function
  | P_deliver -> "an accepted-but-undelivered payload"
  | P_wire k -> Printf.sprintf "an in-flight %s" k.Spec.k_name
  | P_batch k -> Printf.sprintf "a partially-flushed %s batch" k.Spec.k_name

(* ------------------------------------------------------------------ *)
(* 1-unfolding                                                        *)
(* ------------------------------------------------------------------ *)

let step_text spec (label : Spec.label) =
  let role k =
    match Spec.kind_named spec k with Some k -> k.Spec.k_role | None -> "peer"
  in
  match label with
  | Spec.Accept -> "the caller hands a payload to the protocol"
  | Spec.Emit k -> Printf.sprintf "the %s emits %s" (role k) k
  | Spec.Recv k -> Printf.sprintf "%s is received" k
  | Spec.Aggregate k -> Printf.sprintf "the payload is parked in the open %s batch" k
  | Spec.Flush k -> Printf.sprintf "the %s batch is flushed to the wire" k
  | Spec.Deliver -> "the payload is delivered"

let find_kind spec k =
  match Spec.kind_named spec k with
  | Some kind -> kind
  | None -> Spec.kind ~role:"peer" k

(* Remove the first pending unit [sel] matches; None if none does. *)
let take sel pending =
  let rec go acc = function
    | [] -> None
    | p :: rest when sel p -> Some (List.rev_append acc rest)
    | p :: rest -> go (p :: acc) rest
  in
  go [] pending

(* The effect of firing one label on the pending multiset; None when
   the label is not enabled (nothing in flight matches it). *)
let fire spec pending (label : Spec.label) =
  match label with
  | Spec.Accept -> Some (pending @ [ P_deliver ])
  | Spec.Emit k -> Some (pending @ [ P_wire (find_kind spec k) ])
  | Spec.Recv k ->
    take (function P_wire w -> String.equal w.Spec.k_name k | _ -> false) pending
  | Spec.Aggregate k -> Some (pending @ [ P_batch (find_kind spec k) ])
  | Spec.Flush k ->
    let is_batch = function
      | P_batch b -> String.equal b.Spec.k_name k
      | _ -> false
    in
    if not (List.exists is_batch pending) then None
    else
      Some (List.filter (fun p -> not (is_batch p)) pending @ [ P_wire (find_kind spec k) ])
  | Spec.Deliver ->
    take (function P_deliver -> true | _ -> false) pending

let shape_key state pending =
  state ^ "|" ^ String.concat "," (List.map pending_key pending)

let unfold1 (spec : Spec.t) =
  let shapes = ref [] in
  let seen = ref [] in
  let transitions = Array.of_list spec.Spec.s_transitions in
  let record state pending trace =
    let key = shape_key state pending in
    if pending <> [] && not (List.mem key !seen) then begin
      seen := key :: !seen;
      shapes :=
        { sh_state = state; sh_pending = pending; sh_trace = List.rev trace }
        :: !shapes
    end
  in
  let rec go state pending trace used =
    record state pending trace;
    Array.iteri
      (fun i (t : Spec.transition) ->
        if (not (List.mem i used)) && String.equal t.Spec.t_from state then
          match fire spec pending t.Spec.t_label with
          | Some pending' ->
            go t.Spec.t_to pending' (step_text spec t.Spec.t_label :: trace)
              (i :: used)
          | None -> ())
      transitions
  in
  go spec.Spec.s_init [] [] [];
  List.rev !shapes

(* ------------------------------------------------------------------ *)
(* Combination and discharge                                          *)
(* ------------------------------------------------------------------ *)

type hazard = {
  h_shape : string;
  h_fate : [ `Stranded | `Reissued ];
  h_obligation : Spec.obligation;
  h_trace : string list;
}

(* The service contract the caller keeps relying on across the swap;
   instance-local obligations (gap-free-gseq, epoch-flush) are about
   one instance's wire discipline, not the service. *)
let contract_obligations =
  [ Spec.Total_order; Spec.Exactly_once; Spec.Validity ]

let check_pair ~old_name ~old_spec ~new_name ~new_spec ~layer ~passives =
  let layer_name, layer_spec = layer in
  let checked = ref 0 in
  let hazards = ref [] in
  let seen = ref [] in
  let hazard shape fate obligation trace =
    (* one hazard per (shape, obligation): the same undischarged unit
       reappears in many unfolding configurations *)
    let key = shape ^ "|" ^ Spec.obligation_name obligation in
    if not (List.mem key !seen) then begin
      seen := key :: !seen;
      hazards :=
        { h_shape = shape; h_fate = fate; h_obligation = obligation; h_trace = trace }
        :: !hazards
    end
  in
  let switch_step =
    Printf.sprintf
      "changeABcast(%s) is delivered: the %s instance is superseded" new_name
      old_name
  in
  let reissues =
    Spec.has layer_spec Spec.Reissue_undelivered
    && Spec.has layer_spec Spec.Generation_filter
  in
  let quiesces = Spec.has layer_spec Spec.Quiesce_before_switch in
  let old_tagged = Spec.has old_spec Spec.Epoch_tagged_wire in
  (* --- old side: every in-flight shape of the 1-unfolding ---------- *)
  List.iter
    (fun shape ->
      List.iter
        (fun p ->
          incr checked;
          let trace fail = shape.sh_trace @ [ switch_step ] @ fail in
          match p with
          | P_deliver ->
            if not (reissues || quiesces) then
              if Spec.has layer_spec Spec.Reissue_undelivered then
                hazard (pending_name p) `Reissued Spec.Exactly_once
                  (trace
                     [
                       Printf.sprintf
                         "%s re-issues the payload on %s, but filters no \
                          generations: the superseded instance may still \
                          deliver its copy (exactly-once broken)"
                         layer_name new_name;
                     ])
              else
                hazard (pending_name p) `Stranded Spec.Validity
                  (trace
                     [
                       Printf.sprintf
                         "no capability of %s re-issues or drains the pending \
                          payload: it is never delivered (validity broken)"
                         layer_name;
                     ])
          | P_wire k ->
            if old_tagged then
              (* the stale copy is identifiably old-generation: every
                 receiver's epoch filter drops it, and any payload it
                 carried re-enters via the layer's re-issue (checked
                 under P_deliver) *)
              ()
            else if Option.is_some (Spec.kind_named new_spec k.Spec.k_name) then
              hazard (pending_name p) `Reissued Spec.Total_order
                (trace
                   [
                     Printf.sprintf
                       "the stale %s carries no epoch tag and %s speaks the \
                        same kind: the successor instance consumes it into \
                        its own sequence, nodes disagree on slot contents \
                        (total-order broken)"
                       k.Spec.k_name new_name;
                   ])
            else if k.Spec.k_payload && not (reissues || quiesces) then
              hazard (pending_name p) `Stranded Spec.Validity
                (trace
                   [
                     Printf.sprintf
                       "the stale %s is dropped unrecognised and nothing \
                        re-issues its payload (validity broken)"
                       k.Spec.k_name;
                   ])
          | P_batch k ->
            if
              not
                (Spec.has old_spec Spec.Epoch_flush_on_supersede
                && old_tagged
                && (reissues || quiesces))
            then
              hazard (pending_name p) `Stranded Spec.Epoch_flush
                (trace
                   [
                     Printf.sprintf
                       "the superseded %s instance keeps the open %s batch \
                        parked waiting for a fuller fill (epoch-flush broken)"
                       old_name k.Spec.k_name;
                   ]))
        shape.sh_pending)
    (unfold1 old_spec);
  (* --- new side: the successor's early traffic at a late node ------ *)
  let buffered =
    List.exists (fun (_, s) -> Spec.has s Spec.Buffer_future_epoch) passives
  in
  List.iter
    (fun (k : Spec.kind) ->
      incr checked;
      if not (Spec.has new_spec Spec.Epoch_tagged_wire) then begin
        if Option.is_some (Spec.kind_named old_spec k.Spec.k_name) then
          hazard
            (Printf.sprintf "an early %s of the successor" k.Spec.k_name)
            `Reissued Spec.Total_order
            [
              Printf.sprintf
                "a fast node delivers changeABcast(%s) and emits %s untagged"
                new_name k.Spec.k_name;
              Printf.sprintf
                "a node still on %s consumes it into the old instance's \
                 sequence (total-order broken)"
                old_name;
            ]
      end
      else if not buffered then
        hazard
          (Printf.sprintf "an early %s of the successor" k.Spec.k_name)
          `Stranded Spec.Gap_free_gseq
          [
            Printf.sprintf
              "a fast node delivers changeABcast(%s), bumps its epoch and \
               emits %s tagged with the new generation"
              new_name k.Spec.k_name;
            "a slow node (partitioned, or its copy of the change message is \
             delayed) is still on the old generation: the reliable transport \
             acknowledges the message, so the sender stops retransmitting, \
             and every installed module's epoch filter drops it";
            "no passive module buffers future-generation traffic: when the \
             slow node finally switches, the message is gone for good and \
             delivery blocks on the sequence gap (gap-free-gseq broken)";
          ])
    new_spec.Spec.s_kinds;
  (* --- service contract: the caller's obligations must survive ----- *)
  List.iter
    (fun obl ->
      if Spec.obliges old_spec obl then begin
        incr checked;
        if not (Spec.obliges new_spec obl) then
          hazard
            (Printf.sprintf "the %s obligation" (Spec.obligation_name obl))
            `Stranded obl
            [
              Printf.sprintf
                "callers of %s rely on %s; %s does not promise it" old_name
                (Spec.obligation_name obl) new_name;
            ]
      end)
    contract_obligations;
  (!checked, List.rev !hazards)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let fate_text = function `Stranded -> "stranded" | `Reissued -> "re-issued"

let hazard_message ~old_name ~new_name h =
  Printf.sprintf
    "changeABcast(%s -> %s): %s is %s — %s breaks; counterexample: %s"
    old_name new_name h.h_shape (fate_text h.h_fate)
    (Spec.obligation_name h.h_obligation)
    (String.concat "; " h.h_trace)

let hazard_json h =
  let module J = Dpu_obs.Json in
  J.Obj
    [
      ("shape", J.Str h.h_shape);
      ("fate", J.Str (fate_text h.h_fate));
      ("obligation", J.Str (Spec.obligation_name h.h_obligation));
      ("counterexample", J.List (List.map (fun s -> J.Str s) h.h_trace));
    ]
