(* Response-direction execution profile: what the host->guest channel of a
   device looks like under benign traffic.  The trainer mirrors SEDSpec's
   request-direction collection, but over the [Interp] response seam —
   read-return values, outbound DMA, completion stores, IRQ edges. *)

type kind = K_read | K_dma | K_store | K_irq

let nkinds = 4
let kind_index = function K_read -> 0 | K_dma -> 1 | K_store -> 2 | K_irq -> 3

let kind_to_string = function
  | K_read -> "read-return"
  | K_dma -> "dma-out"
  | K_store -> "completion-store"
  | K_irq -> "irq-raise"

type profile = {
  device : string;
  starts : bool array;
  follows : bool array array;
  read_mask : int64;
  store_mask : int64;
  dma_len_max : int;
  irq_max : int;
  events_max : int;
  trained_interactions : int;
}

(* Smear the highest set bit downward: the envelope admits every value
   whose bits all sit at or below the highest bit observed in training. *)
let below_mask v =
  let v = Int64.logor v (Int64.shift_right_logical v 1) in
  let v = Int64.logor v (Int64.shift_right_logical v 2) in
  let v = Int64.logor v (Int64.shift_right_logical v 4) in
  let v = Int64.logor v (Int64.shift_right_logical v 8) in
  let v = Int64.logor v (Int64.shift_right_logical v 16) in
  Int64.logor v (Int64.shift_right_logical v 32)

type collector = {
  c_starts : bool array;
  c_follows : bool array array;
  mutable c_read_mask : int64;
  mutable c_store_mask : int64;
  mutable c_dma_max : int;
  mutable c_irq_max : int;
  mutable c_events_max : int;
  mutable c_prev : kind option;  (** Last kind in the open interaction. *)
  mutable c_events : int;  (** Events in the open interaction. *)
  mutable c_irqs : int;  (** Raises in the open interaction. *)
  mutable c_interactions : int;
}

let collector () =
  {
    c_starts = Array.make nkinds false;
    c_follows = Array.make_matrix nkinds nkinds false;
    c_read_mask = 0L;
    c_store_mask = 0L;
    c_dma_max = 0;
    c_irq_max = 0;
    c_events_max = 0;
    c_prev = None;
    c_events = 0;
    c_irqs = 0;
    c_interactions = 0;
  }

let record_kind c k =
  (match c.c_prev with
  | None -> c.c_starts.(kind_index k) <- true
  | Some p -> c.c_follows.(kind_index p).(kind_index k) <- true);
  c.c_prev <- Some k;
  c.c_events <- c.c_events + 1

let observe c (ev : Interp.Event.response_event) =
  match ev with
  | Interp.Event.R_read_return v ->
    c.c_read_mask <- Int64.logor c.c_read_mask (below_mask v);
    record_kind c K_read
  | Interp.Event.R_dma_out { len; _ } ->
    if len > c.c_dma_max then c.c_dma_max <- len;
    record_kind c K_dma
  | Interp.Event.R_store { value; _ } ->
    c.c_store_mask <- Int64.logor c.c_store_mask (below_mask value);
    record_kind c K_store
  | Interp.Event.R_irq true ->
    c.c_irqs <- c.c_irqs + 1;
    record_kind c K_irq
  | Interp.Event.R_irq false -> ()

(* Close the open interaction: fold its totals into the maxima. *)
let boundary c =
  if c.c_events > 0 || c.c_prev <> None then begin
    if c.c_events > c.c_events_max then c.c_events_max <- c.c_events;
    if c.c_irqs > c.c_irq_max then c.c_irq_max <- c.c_irqs;
    c.c_interactions <- c.c_interactions + 1
  end;
  c.c_prev <- None;
  c.c_events <- 0;
  c.c_irqs <- 0

let finalize c ~device =
  boundary c;
  {
    device;
    starts = Array.copy c.c_starts;
    follows = Array.map Array.copy c.c_follows;
    read_mask = c.c_read_mask;
    store_mask = c.c_store_mask;
    (* Envelope slack: benign traffic must never trip the validator, so
       lengths and event rates get headroom; masks already generalise by
       construction (every value below the observed magnitude passes). *)
    dma_len_max = (max 1 c.c_dma_max) * 2;
    irq_max = max 1 c.c_irq_max;
    events_max = (max 1 c.c_events_max) * 2;
    trained_interactions = c.c_interactions;
  }

(* The profile for a pair with no benign evidence at all: the empty
   start/follow matrices flag every response kind as an untrained opening
   (or sequence), the zero volume bounds flag any DMA byte, IRQ raise or
   second event.  Fail-closed by construction — a validator running this
   profile pends an anomaly on the very first host->guest event. *)
let fail_closed ~device =
  {
    device;
    starts = Array.make nkinds false;
    follows = Array.make_matrix nkinds nkinds false;
    read_mask = 0L;
    store_mask = 0L;
    dma_len_max = 0;
    irq_max = 0;
    events_max = 0;
    trained_interactions = 0;
  }

let is_fail_closed p =
  p.trained_interactions = 0
  && Array.for_all (fun b -> not b) p.starts

(* Train over a machine with a response-hook layer that collects and an
   interposer layer that delimits interactions at the dispatch boundary. *)
let train machine ~device (trainer : Sedspec.Pipeline.trainer) =
  let c = collector () in
  let remove_interposer =
    Vmm.Machine.add_interposer machine device
      {
        Vmm.Machine.before =
          (fun _ ->
            boundary c;
            Vmm.Machine.Allow);
        after = (fun _ _ -> Vmm.Machine.Allow);
      }
  in
  Fun.protect ~finally:remove_interposer (fun () ->
      Interp.with_hooks (Vmm.Machine.interp_of machine device)
        { Interp.silent_hooks with Interp.on_response = observe c }
        (fun () ->
          for case = 0 to trainer.Sedspec.Pipeline.cases - 1 do
            trainer.Sedspec.Pipeline.run_case machine case
          done;
          finalize c ~device))

let pp ppf p =
  let kinds = [ K_read; K_dma; K_store; K_irq ] in
  Format.fprintf ppf
    "response profile %s: %d interactions, read_mask=0x%Lx store_mask=0x%Lx \
     dma<=%d irq<=%d events<=%d@."
    p.device p.trained_interactions p.read_mask p.store_mask p.dma_len_max
    p.irq_max p.events_max;
  List.iter
    (fun k ->
      if p.starts.(kind_index k) then
        Format.fprintf ppf "  start: %s@." (kind_to_string k))
    kinds;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if p.follows.(kind_index a).(kind_index b) then
            Format.fprintf ppf "  %s -> %s@." (kind_to_string a)
              (kind_to_string b))
        kinds)
    kinds
