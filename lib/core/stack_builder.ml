open Dpu_kernel
module P = Dpu_protocols

type profile = {
  initial_abcast : string;
  layer : string option;
  with_gm : bool;
  batching : P.Batcher.config option;
  consensus_layer : string option;
  epoch_buffer : bool;
}

let default_profile =
  {
    initial_abcast = Variants.ct;
    layer = Some Repl.protocol_name;
    with_gm = false;
    batching = None;
    consensus_layer = None;
    epoch_buffer = true;
  }

let register_protocols ?register_extra ~profile system =
  Variants.register_all ?batching:profile.batching system;
  Repl.register system;
  P.Gm.register system;
  (match register_extra with Some f -> f system | None -> ());
  if Option.is_some profile.consensus_layer then Repl_consensus.register_impls system

let build ?collector ?register_extra ~profile system =
  register_protocols ?register_extra ~profile system;
  let registry = System.registry system in
  System.iter_stacks system (fun stack ->
      (* With the consensus replacement layer, the layer must hold the
         [consensus] binding before anything resolves that service. *)
      (match profile.consensus_layer with
      | Some initial ->
        let m = Repl_consensus.install ~registry ~initial ~n:(System.n system) stack in
        Stack.bind stack Service.consensus m
      | None -> ());
      (* The initial ABcast variant must come up first so that the
         layer's [abcast] requirement resolves to it (the registry
         would otherwise pick its own most-recent provider). *)
      ignore (Registry.instantiate registry stack ~name:profile.initial_abcast
               : Stack.module_);
      (match profile.layer with
      | Some name ->
        ignore (Registry.instantiate registry stack ~name : Stack.module_);
        (* A stack that can switch generations needs the receive-side
           hole in the epoch filter closed (see [Epoch_buffer]). The
           knob exists so the hole can be reopened on purpose — the
           safe-update checker must reject such a plan, and the fault
           tests demonstrate the divergence it causes. *)
        if profile.epoch_buffer then
          ignore (P.Epoch_buffer.install stack : Stack.module_)
      | None -> ());
      if profile.with_gm then begin
        assert (Option.is_some profile.layer);
        Registry.ensure_bound registry stack Service.gm
      end;
      match collector with
      | Some collector ->
        let mode =
          if Option.is_some profile.layer then Monitor.Layered else Monitor.Direct
        in
        ignore (Monitor.install ~collector ~mode stack : Stack.module_)
      | None -> ())
