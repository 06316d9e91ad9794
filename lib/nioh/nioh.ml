type astate = string
type input = string

type spec = {
  device : string;
  initial : astate;
  abstract : Devir.Arena.t -> astate;
  classify : Vmm.Machine.request -> input;
  transitions : (astate * input * astate list) list;
  invariants : (string * (Devir.Arena.t -> bool)) list;
}

type anomaly = {
  at_state : astate;
  input : input;
  detail : string;
}

type t = {
  machine : Vmm.Machine.t;
  spec : spec;
  mutable state : astate;
  mutable pending : input option;
  mutable anomalies_rev : anomaly list;
}

let pp_anomaly ppf a =
  Format.fprintf ppf "[nioh] state %s, input %s: %s" a.at_state a.input a.detail

(* Lookup: exact (state, input) first, then a "*" wildcard state.  "=" in
   the result list stands for "the pre-state". *)
let allowed spec state input =
  let resolve l = List.map (fun s -> if s = "=" then state else s) l in
  let exact =
    List.find_opt (fun (s, i, _) -> s = state && i = input) spec.transitions
  in
  match exact with
  | Some (_, _, out) -> Some (resolve out)
  | None -> (
    match
      List.find_opt (fun (s, i, _) -> s = "*" && i = input) spec.transitions
    with
    | Some (_, _, out) -> Some (resolve out)
    | None -> None)

let arena t = Interp.arena (Vmm.Machine.interp_of t.machine t.spec.device)

let record t at_state input detail =
  t.anomalies_rev <- { at_state; input; detail } :: t.anomalies_rev

let before t (req : Vmm.Machine.request) : Vmm.Machine.verdict =
  let input = t.spec.classify req in
  t.pending <- Some input;
  match allowed t.spec t.state input with
  | Some _ -> Vmm.Machine.Allow
  | None ->
    record t t.state input "illegal I/O request for the current device state";
    Vmm.Machine.Halt
      (Printf.sprintf "[nioh] illegal request %s in state %s" input t.state)

let after t (_req : Vmm.Machine.request) (_outcome : Interp.Event.outcome) :
    Vmm.Machine.verdict =
  let input = Option.value t.pending ~default:"?" in
  t.pending <- None;
  let post = t.spec.abstract (arena t) in
  let verdict =
    match allowed t.spec t.state input with
    | Some states when not (List.mem post states) ->
      record t t.state input
        (Printf.sprintf "transition to %s not in the device model" post);
      Vmm.Machine.Halt
        (Printf.sprintf "[nioh] illegal transition %s --%s--> %s" t.state input
           post)
    | _ -> (
      match
        List.find_opt (fun (_, check) -> not (check (arena t))) t.spec.invariants
      with
      | Some (name, _) ->
        record t t.state input (Printf.sprintf "invariant %s violated" name);
        Vmm.Machine.Halt (Printf.sprintf "[nioh] invariant %s violated" name)
      | None -> Vmm.Machine.Allow)
  in
  t.state <- post;
  verdict

let attach machine spec =
  let t =
    {
      machine;
      spec;
      state = spec.initial;
      pending = None;
      anomalies_rev = [];
    }
  in
  t.state <- spec.abstract (Interp.arena (Vmm.Machine.interp_of machine spec.device));
  let (_ : unit -> unit) =
    Vmm.Machine.add_interposer machine spec.device
      { Vmm.Machine.before = before t; after = after t }
  in
  t

let anomalies t = List.rev t.anomalies_rev

let drain_anomalies t =
  let out = List.rev t.anomalies_rev in
  t.anomalies_rev <- [];
  out

let resync t = t.state <- t.spec.abstract (arena t)

(* ------------------------------------------------------------------ *)
(* FDC: hand-written from the 82078 programming model.                 *)

let fdc_spec =
  let get = Devir.Arena.get in
  {
    device = "fdc";
    initial = "idle";
    abstract =
      (fun a ->
        match (get a "phase", get a "data_pos", get a "data_dir") with
        | 0L, 0L, _ -> "idle"
        | 0L, _, _ -> "cmd-args"
        | 1L, _, 1L -> "exec-read"
        | 1L, _, _ -> "exec-write"
        | _ -> "result");
    classify =
      (fun req ->
        let off = Option.value (List.assoc_opt "offset" req.params) ~default:(-1L) in
        match (req.handler, off) with
        | "write", 2L -> "dor-write"
        | "write", 3L -> "tdr-write"
        | "write", 4L -> "dsr-write"
        | "write", 5L -> "data-write"
        | "write", 7L -> "ccr-write"
        | "write", _ -> "reg-write"
        | "read", 4L -> "msr-read"
        | "read", 5L -> "data-read"
        | _, _ -> "reg-read");
    transitions =
      [
        (* A command byte either needs arguments or executes immediately
           (single-byte commands end in the result phase). *)
        ("idle", "data-write", [ "cmd-args"; "result" ]);
        (* The final argument dispatches the command. *)
        ( "cmd-args",
          "data-write",
          [ "cmd-args"; "exec-read"; "exec-write"; "result"; "idle" ] );
        ("exec-write", "data-write", [ "exec-write"; "result" ]);
        ("exec-read", "data-read", [ "exec-read"; "result" ]);
        ("result", "data-read", [ "result"; "idle" ]);
        (* Ignored/bogus accesses leave the state alone. *)
        ("idle", "data-read", [ "idle" ]);
        ("cmd-args", "data-read", [ "cmd-args" ]);
        ("exec-read", "data-write", [ "exec-read" ]);
        ("exec-write", "data-read", [ "exec-write" ]);
        ("result", "data-write", [ "result" ]);
        (* Register traffic; DOR/DSR writes may reset the controller. *)
        ("*", "dor-write", [ "="; "idle" ]);
        ("*", "dsr-write", [ "="; "idle" ]);
        ("*", "tdr-write", [ "=" ]);
        ("*", "ccr-write", [ "=" ]);
        ("*", "reg-write", [ "=" ]);
        ("*", "msr-read", [ "=" ]);
        ("*", "reg-read", [ "=" ]);
      ]
    (* Straight from the datasheet: commands take at most 9 bytes, the
       result phase at most 10 bytes, 80 cylinders (+ a safety margin). *)
    ;
    invariants =
      [
        ("command-length", fun a -> get a "phase" <> 0L || get a "data_pos" <= 9L);
        ( "result-length",
          fun a -> get a "phase" <> 2L || get a "data_len" <= 16L );
        ("cylinder-range", fun a -> get a "track" <= 83L);
      ];
  }

(* ------------------------------------------------------------------ *)
(* SCSI/ESP: hand-written from the 53C9X + SCSI-2 model.               *)

let scsi_spec =
  let get = Devir.Arena.get in
  {
    device = "scsi";
    initial = "free";
    abstract =
      (fun a ->
        if get a "req_active" = 0L then "free"
        else
          match get a "scsi_state" with
          | 2L -> "data-in"
          | 3L -> "data-out"
          | 4L -> "status"
          | _ -> "selected");
    classify =
      (fun req ->
        let off = Option.value (List.assoc_opt "offset" req.params) ~default:(-1L) in
        let data = Option.value (List.assoc_opt "data" req.params) ~default:0L in
        match (req.handler, off) with
        | "mmio_write", 3L -> (
          match Int64.to_int (Int64.logand data 0x7FL) with
          | 0x00 -> "cmd:nop"
          | 0x01 -> "cmd:flush"
          | 0x02 -> "cmd:reset"
          | 0x03 -> "cmd:busreset"
          | 0x10 -> "cmd:ti"
          | 0x11 -> "cmd:iccs"
          | 0x12 -> "cmd:msgacc"
          | 0x41 | 0x42 -> "cmd:select"
          | _ -> "cmd:other")
        | "mmio_write", (0L | 1L) -> "tc-write"
        | "mmio_write", 2L -> "fifo-write"
        | "mmio_write", 8L -> "dma-write"
        | "mmio_write", _ -> "reg-write"
        | "mmio_read", 2L -> "fifo-read"
        | _, _ -> "reg-read");
    transitions =
      [
        (* Selection executes the command: it lands in a transfer phase or
           straight in status. *)
        ("free", "cmd:select", [ "data-in"; "data-out"; "status"; "selected" ]);
        ("data-in", "cmd:ti", [ "data-in"; "status" ]);
        ("data-out", "cmd:ti", [ "data-out"; "status" ]);
        ("status", "cmd:ti", [ "status" ]);
        ("free", "cmd:ti", [ "free" ]);
        (* Command completion is only meaningful while a request is
           active — the rule that catches the use-after-free replay. *)
        ("status", "cmd:iccs", [ "status" ]);
        ("status", "cmd:msgacc", [ "free" ]);
        ("free", "cmd:msgacc", [ "free" ]);
        ("*", "cmd:nop", [ "=" ]);
        ("*", "cmd:flush", [ "=" ]);
        ("*", "cmd:reset", [ "free" ]);
        ("*", "cmd:busreset", [ "=" ]);
        ("*", "tc-write", [ "=" ]);
        ("*", "fifo-write", [ "=" ]);
        ("*", "dma-write", [ "=" ]);
        ("*", "reg-write", [ "=" ]);
        ("*", "fifo-read", [ "=" ]);
        ("*", "reg-read", [ "=" ]);
      ];
    invariants =
      [
        (* SCSI-2: CDBs are 6/10/12/16 bytes; the TI FIFO holds 16. *)
        ("cdb-length", fun a -> get a "cdb_len" <= 16L);
        ("ti-fifo-size", fun a -> get a "ti_size" <= 16L);
        ( "transfer-length",
          fun a -> Int64.unsigned_compare (get a "disk_len") 0x100000L <= 0 );
      ];
  }

(* ------------------------------------------------------------------ *)
(* PCNet: hand-written from the Am79C970A model.                       *)

let pcnet_spec =
  let get = Devir.Arena.get in
  {
    device = "pcnet";
    initial = "stopped";
    abstract =
      (fun a ->
        let csr0 = Int64.to_int (get a "csr0") in
        if csr0 land 0x4 <> 0 then "stopped"
        else if csr0 land 0x2 <> 0 then "running"
        else if csr0 land 0x1 <> 0 then "initialized"
        else "off");
    classify =
      (fun req ->
        let off = Option.value (List.assoc_opt "offset" req.params) ~default:(-1L) in
        match (req.handler, off) with
        | "receive", _ -> "frame-rx"
        | "write", 0x14L -> "sw-reset"
        | "write", 0x12L -> "rap-write"
        | "write", 0x10L -> "csr-write"
        | "write", 0x16L -> "bcr-write"
        | "write", _ -> "reg-write"
        | _, _ -> "reg-read");
    transitions =
      [
        (* CSR0 control bits move the card between stopped / initialized /
           running; the RAP-addressed CSRs do not change the run state. *)
        ("*", "csr-write", [ "off"; "initialized"; "running"; "stopped" ]);
        ("*", "sw-reset", [ "stopped" ]);
        ("*", "rap-write", [ "=" ]);
        ("*", "bcr-write", [ "=" ]);
        ("*", "reg-write", [ "=" ]);
        ("*", "reg-read", [ "=" ]);
        ("*", "frame-rx", [ "=" ]);
      ];
    invariants =
      [
        (* The datasheet requires ring lengths of at least one descriptor
           while the card is running — the CVE-2016-7909 condition. *)
        ( "ring-lengths",
          fun a ->
            Int64.to_int (get a "csr0") land 0x2 = 0
            || (get a "rcvrl" >= 1L && get a "xmtrl" >= 1L) );
        ( "ring-addresses",
          fun a ->
            Int64.to_int (get a "csr0") land 0x2 = 0
            || (get a "rdra" <> 0L && get a "tdra" <> 0L) );
      ];
  }

let spec_for = function
  | "fdc" -> Some fdc_spec
  | "scsi" -> Some scsi_spec
  | "pcnet" -> Some pcnet_spec
  | _ -> None
