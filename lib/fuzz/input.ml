(* A fuzzer input is the guest's half of a device conversation: the I/O
   requests a driver issues (already resolved to handler + parameters,
   the form the machine dispatches) interleaved with the guest-memory
   bytes it stages for the device to DMA.  Replaying the steps against a
   fresh machine reproduces the interaction without re-running any
   driver logic, which is what lets mutants explore sequences no driver
   would emit. *)

module Prng = Sedspec_util.Prng

(* Fault steps schedule deterministic faultinj effects inside a replay.
   Guest faults stay armed until replaced or cleared; walk faults are
   one-shot and fire at the top of the checker's next walk, before
   engine dispatch — so both engines observe the identical effect and
   the differential oracle survives. *)
type fault =
  | F_guest_xor of int64  (* corrupt reads: Inject.corrupt_byte mask *)
  | F_guest_short of int64  (* reads at/above the limit return 0 *)
  | F_guest_clear
  | F_walk_raise
  | F_walk_delay of int  (* Inject.burn iterations *)
  (* Response-direction (host->guest) faults, applied inside the devir
     interpreter so both walk engines observe identical effects.  Like
     guest faults they stay armed until replaced or cleared. *)
  | F_resp_read of int64  (* mangle read-return values: corrupt_value mask *)
  | F_resp_store of int64  (* mangle completion-store values *)
  | F_resp_dma of int  (* add delta to outbound DMA lengths *)
  | F_resp_irq of int  (* extra raise/lower edges per IRQ raise *)
  | F_resp_clear

type step =
  | Req of { handler : string; params : (string * int64) list }
  | Guest_write of { addr : int64; data : string }
  | Fault of fault

type origin = Benign | Attack of string | Mutant

type t = {
  device : string;
  version : Devices.Qemu_version.t;
  origin : origin;
  steps : step array;
}

let origin_to_string = function
  | Benign -> "benign"
  | Attack cve -> "attack:" ^ cve
  | Mutant -> "mutant"

let origin_of_string s =
  if s = "benign" then Benign
  else if s = "mutant" then Mutant
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "attack" ->
      Attack (String.sub s (i + 1) (String.length s - i - 1))
    | _ -> invalid_arg ("Fuzz.Input: bad origin " ^ s)

(* --- Recording --------------------------------------------------------- *)

(* Drive [f] against [m] while capturing the named device's top-level
   requests (via a recording interposer) and the guest-memory writes the
   driver performs between them (via the RAM write hook; writes made
   while the device itself runs are its own DMA, a function of replay,
   and are skipped).  Consecutive-address byte writes coalesce into one
   [Guest_write]. *)
let record m ~device f =
  let steps = ref [] in
  let in_device = ref false in
  let pend_addr = ref 0L in
  let pend = Buffer.create 64 in
  let flush () =
    if Buffer.length pend > 0 then begin
      steps := Guest_write { addr = !pend_addr; data = Buffer.contents pend } :: !steps;
      Buffer.clear pend
    end
  in
  let ram = Vmm.Machine.ram m in
  Vmm.Guest_mem.set_write_hook ram
    (Some
       (fun addr byte ->
         if not !in_device then begin
           let next = Int64.add !pend_addr (Int64.of_int (Buffer.length pend)) in
           if Buffer.length pend > 0 && Int64.equal addr next
              && Buffer.length pend < 4096
           then Buffer.add_char pend (Char.chr byte)
           else begin
             flush ();
             pend_addr := addr;
             Buffer.add_char pend (Char.chr byte)
           end
         end));
  let remove =
    Vmm.Machine.add_interposer m device
      {
        Vmm.Machine.before =
          (fun req ->
            flush ();
            steps :=
              Req { handler = req.Vmm.Machine.handler; params = req.params }
              :: !steps;
            in_device := true;
            Vmm.Machine.Allow);
        after =
          (fun _ _ ->
            in_device := false;
            Vmm.Machine.Allow);
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Vmm.Guest_mem.set_write_hook ram None;
      remove ())
    f;
  flush ();
  Array.of_list (List.rev !steps)

(* --- Seed corpus ------------------------------------------------------- *)

let record_benign (module W : Workload.Samples.DEVICE_WORKLOAD) f =
  let m = W.make_machine W.paper_version in
  let steps = record m ~device:W.device_name (fun () -> f m) in
  { device = W.device_name; version = W.paper_version; origin = Benign; steps }

let seed_corpus ~device =
  let w = Workload.Samples.find device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let trainer = W.trainer ~cases:1 in
  (* Deliberately lean: the benign workloads are the very corpus the
     specification was trained from, so full transcripts would saturate
     spec coverage from the seeds alone and leave the mutator nothing to
     discover.  Short soak windows and a truncated training-case prefix
     seed the corpus with realistic command material while keeping
     coverage headroom — the growth the fuzzer reports is then real
     exploration, not seed replay. *)
  let truncate n (i : t) =
    if Array.length i.steps <= n then i else { i with steps = Array.sub i.steps 0 n }
  in
  let benign =
    truncate 600
      (record_benign (module W) (fun m -> trainer.Sedspec.Pipeline.run_case m 0))
    :: List.map
         (fun mode ->
           truncate 96
             (record_benign (module W) (fun m ->
                  let rng = Prng.create 0x5EED5L in
                  W.soak_case ~mode ~rng ~rare_prob:0.0 ~ops:2 m)))
         [ Workload.Samples.Sequential; Workload.Samples.Random ]
  in
  let attacks =
    List.filter_map
      (fun (a : Attacks.Attack.t) ->
        if a.device <> device then None
        else begin
          let m = W.make_machine a.qemu_version in
          let steps =
            record m ~device (fun () ->
                (* Exploits may bail out mid-stream (e.g. [Exit] once the
                   corruption landed); the prefix is still a useful seed. *)
                try
                  a.setup m;
                  a.run m
                with _ -> ())
          in
          Some
            (truncate 128
               { device; version = a.qemu_version; origin = Attack a.cve; steps })
        end)
      Attacks.Attack.all
  in
  benign @ attacks

(* --- Serialization ----------------------------------------------------- *)

(* Line-oriented text, one input per [input .. end] block:
     input <device> <version> <origin>
     g <addr> <hex-bytes>
     r <handler> <name>=<value>,<name>=<value>
     end
   Values are unsigned hex int64s, so the format round-trips the full
   64-bit range. *)

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  if String.length h mod 2 <> 0 then invalid_arg "Fuzz.Input: odd hex length";
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let step_to_line = function
  | Guest_write { addr; data } ->
    Printf.sprintf "g 0x%Lx %s" addr (hex_of_string data)
  | Req { handler; params } ->
    Printf.sprintf "r %s %s" handler
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%s=0x%Lx" k v) params))
  | Fault (F_guest_xor mask) -> Printf.sprintf "f xor 0x%Lx" mask
  | Fault (F_guest_short limit) -> Printf.sprintf "f short 0x%Lx" limit
  | Fault F_guest_clear -> "f clear"
  | Fault F_walk_raise -> "f raise"
  | Fault (F_walk_delay spin) -> Printf.sprintf "f delay %d" spin
  (* Response faults use the "rf" tag: "r" is the request line. *)
  | Fault (F_resp_read mask) -> Printf.sprintf "rf read 0x%Lx" mask
  | Fault (F_resp_store mask) -> Printf.sprintf "rf store 0x%Lx" mask
  | Fault (F_resp_dma delta) -> Printf.sprintf "rf dma %d" delta
  | Fault (F_resp_irq burst) -> Printf.sprintf "rf irq %d" burst
  | Fault F_resp_clear -> "rf clear"

let to_lines t =
  Printf.sprintf "input %s %s %s" t.device
    (Devices.Qemu_version.to_string t.version)
    (origin_to_string t.origin)
  :: (Array.to_list t.steps |> List.map step_to_line)
  @ [ "end" ]

let to_string t = String.concat "\n" (to_lines t) ^ "\n"

let corpus_to_string inputs = String.concat "" (List.map to_string inputs)

let split_words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let step_of_line line =
  match split_words line with
  | [ "g"; addr; hex ] ->
    Guest_write { addr = Int64.of_string addr; data = string_of_hex hex }
  | [ "g"; addr ] ->
    (* Empty payload prints as "g <addr> " — no hex word survives
       [split_words]. *)
    Guest_write { addr = Int64.of_string addr; data = "" }
  | [ "r"; handler ] -> Req { handler; params = [] }
  | [ "f"; "xor"; mask ] -> Fault (F_guest_xor (Int64.of_string mask))
  | [ "f"; "short"; limit ] -> Fault (F_guest_short (Int64.of_string limit))
  | [ "f"; "clear" ] -> Fault F_guest_clear
  | [ "f"; "raise" ] -> Fault F_walk_raise
  | [ "f"; "delay"; spin ] -> Fault (F_walk_delay (int_of_string spin))
  | [ "rf"; "read"; mask ] -> Fault (F_resp_read (Int64.of_string mask))
  | [ "rf"; "store"; mask ] -> Fault (F_resp_store (Int64.of_string mask))
  | [ "rf"; "dma"; delta ] -> Fault (F_resp_dma (int_of_string delta))
  | [ "rf"; "irq"; burst ] -> Fault (F_resp_irq (int_of_string burst))
  | [ "rf"; "clear" ] -> Fault F_resp_clear
  | [ "r"; handler; kvs ] ->
    let params =
      String.split_on_char ',' kvs
      |> List.filter (fun p -> p <> "")
      |> List.map (fun p ->
             match String.index_opt p '=' with
             | Some i ->
               ( String.sub p 0 i,
                 Int64.of_string (String.sub p (i + 1) (String.length p - i - 1))
               )
             | None -> invalid_arg ("Fuzz.Input: bad param " ^ p))
    in
    Req { handler; params }
  | _ -> invalid_arg ("Fuzz.Input: bad step line: " ^ line)

let corpus_of_string s =
  try
    let lines =
      String.split_on_char '\n' s
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    in
    let rec inputs acc = function
      | [] -> Ok (List.rev acc)
      | header :: rest -> (
        match split_words header with
        | [ "input"; device; version; origin ] ->
          let rec steps sacc = function
            | "end" :: rest -> (List.rev sacc, rest)
            | line :: rest -> steps (step_of_line line :: sacc) rest
            | [] -> invalid_arg "Fuzz.Input: missing end"
          in
          let ss, rest = steps [] rest in
          inputs
            ({
               device;
               version = Devices.Qemu_version.of_string version;
               origin = origin_of_string origin;
               steps = Array.of_list ss;
             }
            :: acc)
            rest
        | _ -> invalid_arg ("Fuzz.Input: bad header: " ^ header))
    in
    inputs [] lines
  with
  | Invalid_argument msg -> Error msg
  | Failure msg -> Error msg

let save_corpus file inputs =
  Sedspec_util.Atomic_file.write file (corpus_to_string inputs)

let load_corpus file =
  let ic = open_in file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  corpus_of_string s
