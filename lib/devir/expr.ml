type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type cmpop = Eq | Ne | Ltu | Leu | Gtu | Geu | Lts | Les | Gts | Ges

type t =
  | Const of int64 * Width.t
  | Field of string
  | Buf_byte of string * t
  | Buf_len of string
  | Param of string
  | Local of string
  | Binop of binop * Width.t * t * t
  | Cmp of cmpop * t * t
  | Not of t

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

let cmpop_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Ltu -> "<u"
  | Leu -> "<=u"
  | Gtu -> ">u"
  | Geu -> ">=u"
  | Lts -> "<s"
  | Les -> "<=s"
  | Gts -> ">s"
  | Ges -> ">=s"

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Field _ | Buf_len _ | Param _ | Local _ -> acc
  | Buf_byte (_, idx) -> fold f acc idx
  | Binop (_, _, a, b) | Cmp (_, a, b) -> fold f (fold f acc a) b
  | Not a -> fold f acc a

let dedup l =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

let fields e =
  dedup
    (List.rev
       (fold
          (fun acc e ->
            match e with
            | Field n | Buf_byte (n, _) | Buf_len n -> n :: acc
            | _ -> acc)
          [] e))

let locals e =
  dedup
    (List.rev
       (fold (fun acc e -> match e with Local n -> n :: acc | _ -> acc) [] e))

let params e =
  dedup
    (List.rev
       (fold (fun acc e -> match e with Param n -> n :: acc | _ -> acc) [] e))

let rec pp ppf = function
  | Const (v, w) -> Format.fprintf ppf "%Ld:%s" v (Width.to_string w)
  | Field n -> Format.fprintf ppf "s.%s" n
  | Buf_byte (b, idx) -> Format.fprintf ppf "s.%s[%a]" b pp idx
  | Buf_len b -> Format.fprintf ppf "sizeof(s.%s)" b
  | Param n -> Format.fprintf ppf "io.%s" n
  | Local n -> Format.fprintf ppf "%s" n
  | Binop (op, w, a, b) ->
    Format.fprintf ppf "(%a %s:%s %a)" pp a (binop_to_string op)
      (Width.to_string w) pp b
  | Cmp (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (cmpop_to_string op) pp b
  | Not a -> Format.fprintf ppf "!%a" pp a

let to_string e = Format.asprintf "%a" pp e
