type trace_event = Pge of int64 | Tnt of bool | Tip of int64 | Pgd

type obs_outcome =
  | O_goto of string
  | O_taken
  | O_not_taken
  | O_case of int64 * string
  | O_icall of int64
  | O_halt

type observe_entry = {
  index : int;
  block : Devir.Program.bref;
  outcome : obs_outcome;
}

type oob_event = {
  oob_block : Devir.Program.bref;
  oob_buf : string;
  oob_index : int;
  oob_write : bool;
}

(* The host→guest channel, as the guest experiences it: every value the
   device hands back crosses exactly one of these four seams. *)
type response_event =
  | R_read_return of int64  (* [Respond] value returned for a read *)
  | R_dma_out of { addr : int64; len : int }  (* [Copy_to_guest] *)
  | R_store of { addr : int64; value : int64; width : Devir.Width.t }
      (* [Write_guest] — completion/status writes into guest memory *)
  | R_irq of bool  (* IRQ line raised/lowered through a callback *)

type trap =
  | Wild_jump of { block : Devir.Program.bref; target : int64 }
  | Icall_blocked of { block : Devir.Program.bref; target : int64 }
  | Div_by_zero of Devir.Program.bref
  | Out_of_arena of { block : Devir.Program.bref; field : string; index : int }
  | Undefined_param of { block : Devir.Program.bref; param : string }
  | Undefined_local of { block : Devir.Program.bref; local : string }
  | Step_limit
  | Depth_limit

type outcome = Done of { response : int64 option } | Trapped of trap

let pp_trace_event ppf = function
  | Pge a -> Format.fprintf ppf "PGE %Lx" a
  | Tnt b -> Format.fprintf ppf "TNT %c" (if b then 'T' else 'N')
  | Tip a -> Format.fprintf ppf "TIP %Lx" a
  | Pgd -> Format.fprintf ppf "PGD"

let pp_obs_outcome ppf = function
  | O_goto l -> Format.fprintf ppf "goto %s" l
  | O_taken -> Format.fprintf ppf "taken"
  | O_not_taken -> Format.fprintf ppf "not-taken"
  | O_case (v, l) -> Format.fprintf ppf "case %Ld -> %s" v l
  | O_icall v -> Format.fprintf ppf "icall %Lx" v
  | O_halt -> Format.fprintf ppf "halt"

let pp_observe_entry ppf (e : observe_entry) =
  Format.fprintf ppf "@[<h>%a %a@]" Devir.Program.pp_bref e.block
    pp_obs_outcome e.outcome

let pp_response_event ppf = function
  | R_read_return v -> Format.fprintf ppf "read-return %Ld" v
  | R_dma_out { addr; len } -> Format.fprintf ppf "dma-out %Lx+%d" addr len
  | R_store { addr; value; width } ->
    Format.fprintf ppf "store %Lx <- %Ld (%s)" addr value
      (Devir.Width.to_string width)
  | R_irq up -> Format.fprintf ppf "irq %s" (if up then "raise" else "lower")

let pp_trap ppf = function
  | Wild_jump { block; target } ->
    Format.fprintf ppf "wild jump to %Lx at %a" target Devir.Program.pp_bref
      block
  | Icall_blocked { block; target } ->
    Format.fprintf ppf "indirect call to %Lx blocked by guard at %a" target
      Devir.Program.pp_bref block
  | Div_by_zero b ->
    Format.fprintf ppf "division by zero at %a" Devir.Program.pp_bref b
  | Out_of_arena { block; field; index } ->
    Format.fprintf ppf "access to %s[%d] escapes control structure at %a"
      field index Devir.Program.pp_bref block
  | Undefined_param { block; param } ->
    Format.fprintf ppf "undefined request parameter %s at %a" param
      Devir.Program.pp_bref block
  | Undefined_local { block; local } ->
    Format.fprintf ppf "undefined local %s at %a" local Devir.Program.pp_bref
      block
  | Step_limit -> Format.fprintf ppf "step limit exceeded (hang)"
  | Depth_limit -> Format.fprintf ppf "callback depth limit exceeded"

let pp_outcome ppf = function
  | Done { response = Some v } -> Format.fprintf ppf "done (response %Ld)" v
  | Done { response = None } -> Format.fprintf ppf "done"
  | Trapped t -> Format.fprintf ppf "trapped: %a" pp_trap t

let trap_to_string t = Format.asprintf "%a" pp_trap t
