(** Indirect Targets Connected Control Flow Graph (ITC-CFG).

    The runtime control-flow graph SEDSpec builds from decoded PT traces
    (the FlowGuard construction): one node per basic block actually
    executed, edges weighted by observation counts, and — the "indirect
    targets connected" part — each indirect jump site annotated with the
    set of concrete targets it was observed to reach.  SEDSpec's CFG
    analyzer later walks this graph to find the conditional and indirect
    structures whose variables become device state parameters.

    The graph keeps its counts in arrays over the program's block index
    ({!Devir.Program.index_of}) and folds each decoded step in as the
    decoder walks, so it builds no step list and compares no block
    names. *)

type node = {
  bref : Devir.Program.bref;
  visits : int;
  taken : int;       (** Conditional branch: times taken. *)
  not_taken : int;
  itargets : (int64 * int) list;
      (** Indirect call targets with observation counts, first seen
          first. *)
  succs : (Devir.Program.bref * int) list;
      (** Observed successor blocks with edge counts, first seen first. *)
}
(** A node's counts as they stood when it was read. *)

type t

val create : Devir.Program.t -> t

val add_window : t -> Packet.t list -> unit
(** Decode a packet stream — one trace window or several — with
    {!Decoder.walk} and fold every step into the graph as the walk reaches
    it.  Raises what {!Decoder.walk} raises; the graph then holds the
    steps before the fault. *)

val program : t -> Devir.Program.t
val node : t -> Devir.Program.bref -> node option
val nodes : t -> node list
(** All nodes, in program address order. *)

val block_count : t -> int

val conditional_nodes : t -> node list
(** Nodes whose block ends in a conditional branch. *)

val indirect_nodes : t -> node list
(** Nodes whose block ends in an indirect call. *)

val one_sided : node -> bool
(** A conditional node observed taking only one direction — the basis of
    the conditional jump check. *)

val edge_count : t -> int

val pp : Format.formatter -> t -> unit
