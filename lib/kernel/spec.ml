(* Behavioural protocol specifications; see spec.mli. *)

type obligation =
  | Total_order
  | Exactly_once
  | Validity
  | Gap_free_gseq
  | Epoch_flush

let obligation_name = function
  | Total_order -> "total-order"
  | Exactly_once -> "exactly-once"
  | Validity -> "validity"
  | Gap_free_gseq -> "gap-free-gseq"
  | Epoch_flush -> "epoch-flush"

type capability =
  | Reissue_undelivered
  | Generation_filter
  | Quiesce_before_switch
  | Epoch_tagged_wire
  | Epoch_flush_on_supersede
  | Buffer_future_epoch
  | Slot_scoped_rounds

type kind = { k_name : string; k_role : string; k_payload : bool }

let kind ?(payload = false) ~role k_name =
  { k_name; k_role = role; k_payload = payload }

type label =
  | Accept
  | Emit of string
  | Recv of string
  | Aggregate of string
  | Flush of string
  | Deliver

type transition = { t_from : string; t_label : label; t_to : string }

let t t_from t_label t_to = { t_from; t_label; t_to }

type t = {
  s_service : string;
  s_roles : string list;
  s_kinds : kind list;
  s_init : string;
  s_transitions : transition list;
  s_obligations : obligation list;
  s_capabilities : capability list;
  s_opaque : string option;
}

let make ~service ?(roles = []) ?(kinds = []) ?(init = "idle") ?(transitions = [])
    ?(obligations = []) ?(capabilities = []) () =
  {
    s_service = service;
    s_roles = roles;
    s_kinds = kinds;
    s_init = init;
    s_transitions = transitions;
    s_obligations = obligations;
    s_capabilities = capabilities;
    s_opaque = None;
  }

let opaque ~service reason = { (make ~service ()) with s_opaque = Some reason }

let is_opaque spec = Option.is_some spec.s_opaque

let has spec cap = List.mem cap spec.s_capabilities

let obliges spec obl = List.mem obl spec.s_obligations

let kind_named spec name =
  List.find_opt (fun k -> String.equal k.k_name name) spec.s_kinds
