type interaction = {
  handler : string;
  params : (string * int64) list;
  entries : Interp.Event.observe_entry list;
}

let observation_points program =
  let points = ref [] in
  Devir.Program.iter_blocks program (fun bref block ->
      let keep =
        match block.Devir.Block.kind with
        | Devir.Block.Entry | Devir.Block.Exit | Devir.Block.Cmd_decision
        | Devir.Block.Cmd_end ->
          true
        | Devir.Block.Normal -> (
          match block.Devir.Block.term with
          | Devir.Term.Branch _ | Devir.Term.Switch _ | Devir.Term.Icall _ -> true
          | Devir.Term.Goto _ | Devir.Term.Halt -> false)
      in
      if keep then points := bref :: !points);
  List.rev !points

module Collector = struct
  type collector = {
    interp : Interp.t;
    mutable remove : unit -> unit;  (* the hook and interposer layers *)
    on_interaction : interaction -> unit;
    mutable current : (string * (string * int64) list) option;
        (** Handler/params of the in-flight interaction. *)
    mutable current_entries : Interp.Event.observe_entry list;  (* reversed *)
  }

  let flush t =
    match t.current with
    | None -> ()
    | Some (handler, params) ->
      let entries = List.rev t.current_entries in
      t.current <- None;
      t.current_entries <- [];
      t.on_interaction { handler; params; entries }

  let attach machine ~device ~points ~on_interaction =
    let interp = Vmm.Machine.interp_of machine device in
    let t =
      { interp; remove = ignore; on_interaction; current = None; current_entries = [] }
    in
    Interp.set_observation interp ~points;
    let remove_hooks =
      Interp.add_hooks interp
        {
          Interp.silent_hooks with
          Interp.on_observe = (fun e -> t.current_entries <- e :: t.current_entries);
        }
    in
    let remove_interposer =
      Vmm.Machine.add_interposer machine device
        {
          Vmm.Machine.before =
            (fun req ->
              flush t;
              t.current <- Some (req.Vmm.Machine.handler, req.Vmm.Machine.params);
              Vmm.Machine.Allow);
          after =
            (fun _ _ ->
              flush t;
              Vmm.Machine.Allow);
        }
    in
    t.remove <-
      (fun () ->
        remove_hooks ();
        remove_interposer ());
    t

  let detach t =
    Interp.clear_observation t.interp;
    t.remove ()
end
