module Clock = Dpu_runtime.Clock

type handlers = {
  handle_call : Service.t -> Payload.t -> unit;
  handle_indication : Service.t -> Payload.t -> unit;
  on_start : unit -> unit;
  on_stop : unit -> unit;
}

let default_handlers =
  {
    handle_call = (fun _ _ -> ());
    handle_indication = (fun _ _ -> ());
    on_start = (fun () -> ());
    on_stop = (fun () -> ());
  }

type module_ = {
  m_id : int;
  m_name : string;
  m_provides : Service.t list;
  m_requires : Service.t list;
  mutable m_handlers : handlers;
  mutable m_removed : bool;
}

(* [Type.Id] proves a cell's value has its key's type. *)
type 'a key = 'a Type.Id.t

and cell = Cell : 'a key * 'a -> cell

type t = {
  clock : Clock.t;
  node : int;
  labels : (string * string) list;
  hop_cost : float;
  trace : Trace.t;
  metrics : Dpu_obs.Metrics.t;
  blocked_hist : Dpu_obs.Metrics.histogram;
  mutable next_module_id : int;
  mutable modules : module_ list; (* reversed addition order *)
  mutable bindings : module_ Service.Map.t;
  blocked : (Service.t, (float * Payload.t) Queue.t) Hashtbl.t;
      (* enqueue time, payload *)
  mutable cells : cell list;
  mutable crashed : bool;
  mutable calls_executed : int;
  mutable indications_executed : int;
  mutable calls_blocked : int;
  mutable calls_unblocked : int;
  mutable binds : int;
  mutable unbinds : int;
}

exception Already_bound of Service.t

let create ~clock ~node ?group ?(hop_cost = 0.05) ~trace
    ?(metrics = Dpu_obs.Metrics.noop) () =
  let labels =
    ("node", string_of_int node)
    ::
    (match group with
    | Some g -> [ ("group", string_of_int g) ]
    | None -> [])
  in
  let t =
    {
      clock;
      node;
      labels;
      hop_cost;
      trace;
      metrics;
      blocked_hist =
        Dpu_obs.Metrics.histogram metrics ~labels "kernel_blocked_call_ms";
      next_module_id = 0;
      modules = [];
      bindings = Service.Map.empty;
      blocked = Hashtbl.create 8;
      cells = [];
      crashed = false;
      calls_executed = 0;
      indications_executed = 0;
      calls_blocked = 0;
      calls_unblocked = 0;
      binds = 0;
      unbinds = 0;
    }
  in
  let module M = Dpu_obs.Metrics in
  M.register_int metrics ~labels "kernel_calls_total" (fun () -> t.calls_executed);
  M.register_int metrics ~labels "kernel_indications_total" (fun () ->
      t.indications_executed);
  M.register_int metrics ~labels "kernel_calls_blocked_total" (fun () ->
      t.calls_blocked);
  M.register_int metrics ~labels "kernel_calls_unblocked_total" (fun () ->
      t.calls_unblocked);
  M.register_int metrics ~labels "kernel_binds_total" (fun () -> t.binds);
  M.register_int metrics ~labels "kernel_unbinds_total" (fun () -> t.unbinds);
  M.register_int metrics ~labels "kernel_modules" (fun () -> List.length t.modules);
  t

let node t = t.node

let labels t = t.labels

let now t = Clock.now t.clock

let metrics t = t.metrics

let is_crashed t = t.crashed

let record t kind = Trace.record t.trace ~time:(now t) ~node:t.node kind

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    record t Trace.Crash
  end

let modules t = List.rev t.modules

let module_name m = m.m_name

let module_provides m = m.m_provides

let module_requires m = m.m_requires

let find_module t ~name =
  List.find_opt (fun m -> String.equal m.m_name name && not m.m_removed) t.modules

let has_module t ~name = Option.is_some (find_module t ~name)

let add_module t ~name ~provides ~requires init =
  let m =
    {
      m_id = t.next_module_id;
      m_name = name;
      m_provides = provides;
      m_requires = requires;
      m_handlers = default_handlers;
      m_removed = false;
    }
  in
  t.next_module_id <- t.next_module_id + 1;
  t.modules <- m :: t.modules;
  m.m_handlers <- init t m;
  record t (Trace.Add_module name);
  m.m_handlers.on_start ();
  m

let remove_module t m =
  if not m.m_removed then begin
    m.m_handlers.on_stop ();
    m.m_removed <- true;
    t.modules <- List.filter (fun m' -> m'.m_id <> m.m_id) t.modules;
    (* Drop any binding still pointing at the removed module. *)
    Service.Map.iter
      (fun svc bound_m ->
        if bound_m.m_id = m.m_id then begin
          t.bindings <- Service.Map.remove svc t.bindings;
          t.unbinds <- t.unbinds + 1;
          record t (Trace.Unbind (Service.name svc, m.m_name))
        end)
      t.bindings;
    record t (Trace.Remove_module m.m_name)
  end

let bound t svc = Service.Map.find_opt svc t.bindings

let blocked_queue t svc =
  match Hashtbl.find_opt t.blocked svc with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.blocked svc q;
    q

let blocked_calls t svc =
  match Hashtbl.find_opt t.blocked svc with None -> 0 | Some q -> Queue.length q

(* Dispatch of a call once the hop delay has elapsed. The binding is
   resolved here, at execution time, so calls racing a replacement see
   the binding in force when they arrive, as in the paper's model. *)
let rec execute_call t svc payload =
  if not t.crashed then
    match bound t svc with
    | Some m ->
      t.calls_executed <- t.calls_executed + 1;
      m.m_handlers.handle_call svc payload
    | None ->
      t.calls_blocked <- t.calls_blocked + 1;
      record t (Trace.Call_blocked (Service.name svc));
      Queue.add (now t, payload) (blocked_queue t svc)

and release_blocked t svc =
  match Hashtbl.find_opt t.blocked svc with
  | None -> ()
  | Some q ->
    let pending = Queue.length q in
    let now = now t in
    for _ = 1 to pending do
      let blocked_at, payload = Queue.pop q in
      t.calls_unblocked <- t.calls_unblocked + 1;
      Dpu_obs.Metrics.observe t.blocked_hist (now -. blocked_at);
      record t (Trace.Call_unblocked (Service.name svc));
      Clock.defer t.clock ~delay:t.hop_cost (fun () -> execute_call t svc payload)
    done

let bind t svc m =
  assert (List.exists (Service.equal svc) m.m_provides);
  (match bound t svc with
  | Some existing when existing.m_id <> m.m_id -> raise (Already_bound svc)
  | Some _ | None -> ());
  t.bindings <- Service.Map.add svc m t.bindings;
  t.binds <- t.binds + 1;
  record t (Trace.Bind (Service.name svc, m.m_name));
  release_blocked t svc

let unbind t svc =
  match bound t svc with
  | None -> ()
  | Some m ->
    t.bindings <- Service.Map.remove svc t.bindings;
    t.unbinds <- t.unbinds + 1;
    record t (Trace.Unbind (Service.name svc, m.m_name))

let call t svc payload =
  if not t.crashed then
    Clock.defer t.clock ~delay:t.hop_cost (fun () -> execute_call t svc payload)

let execute_indication t svc payload =
  if not t.crashed then begin
    t.indications_executed <- t.indications_executed + 1;
    (* Snapshot in addition order, taken in one pass over the
       (reversed) module list before any handler runs: a module added
       by a handler misses the indication in flight, and one removed by
       a handler is skipped, since it has run [on_stop]. *)
    let receivers =
      List.fold_left
        (fun acc m -> if List.exists (Service.equal svc) m.m_requires then m :: acc else acc)
        [] t.modules
    in
    List.iter
      (fun m -> if not m.m_removed then m.m_handlers.handle_indication svc payload)
      receivers
  end

let indicate t svc payload =
  if not t.crashed then
    Clock.defer t.clock ~delay:t.hop_cost (fun () ->
        execute_indication t svc payload)

let app_event t ~tag to_string x =
  if Trace.enabled t.trace then record t (Trace.App (tag, to_string x))

let dispatch_counts t = (t.calls_executed, t.indications_executed)

let key () = Type.Id.make ()

let state (type a) t (key : a key) init : a =
  let rec find = function
    | [] ->
      let v = init () in
      t.cells <- Cell (key, v) :: t.cells;
      v
    | Cell (key', v) :: rest -> (
      match Type.Id.provably_equal key key' with Some Type.Equal -> v | None -> find rest)
  in
  find t.cells

let after t ~delay fn =
  Clock.schedule t.clock ~delay (fun () -> if not t.crashed then fn ())

let periodic t ~period fn =
  Clock.every t.clock ~period (fun () -> if not t.crashed then fn ())
