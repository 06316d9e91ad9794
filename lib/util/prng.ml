(* The splitmix64 state lives in 8 bytes, read and written with
   [Bytes.get_int64_ne]/[set_int64_ne]: a draw stores an unboxed [int64],
   where a mutable [int64] field would box a fresh one on every draw. *)
type t = bytes

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64: state advances by the golden-ratio increment; output is the
   finalizer of Stafford's mix13 variant.  Inlined into every draw below,
   so the output stays unboxed up to its use. *)
let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The top 62 bits of one output: uniform on [0, 2^62). *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  assert (bound > 0);
  (* A plain [r mod bound] favours small residues whenever bound does not
     divide 2^62; reject the biased tail (r > cut, at most one draw in
     ~4.6e18 for small bounds) instead.  [cut] is the largest r with
     r mod bound exact, i.e. 2^62 - (2^62 mod bound) - 1; note 2^62 =
     max_int + 1 on 64-bit OCaml. *)
  let rem = ((max_int mod bound) + 1) mod bound in
  let cut = max_int - rem in
  let r = ref (bits62 t) in
  while !r > cut do
    r := bits62 t
  done;
  !r mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  r /. 9007199254740992.0 *. bound

let chance t p = float t 1.0 < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t l =
  assert (l <> []);
  List.nth l (int t (List.length l))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* 256 divides 2^62, so [int t 256] never rejects: byte [i] is bits 2-9
   of the [i]th output. *)
let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (bits62 t land 0xFF))
  done;
  b

let split t = create (next t)
