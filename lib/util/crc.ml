(* Table-driven CRC-32 over the reflected IEEE polynomial, computed in
   [int]s (the 32 bits fit in an OCaml int), so digesting allocates
   nothing but the result: one xor + shift + lookup per byte.  The table
   is built at module initialisation, before any domain can race to
   build it. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s =
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32 s = update 0l s

let to_hex v = Printf.sprintf "%08lx" (Int32.logand v 0xFFFFFFFFl)

let of_hex s =
  if String.length s <> 8 then None
  else if not (String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) s)
  then None
  else Some (Int32.of_string ("0x" ^ s))
