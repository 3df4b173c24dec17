type t = Pi | Buf | Not | And | Nand | Or | Nor | Xor | Xnor

let equal (a : t) b = a = b

let to_string = function
  | Pi -> "PI"
  | Buf -> "BUFF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"

let of_string s =
  match String.uppercase_ascii s with
  | "PI" | "INPUT" -> Some Pi
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | _ -> None

let min_arity = function
  | Pi -> 0
  | Buf | Not -> 1
  | And | Nand | Or | Nor | Xor | Xnor -> 2

let max_arity = function
  | Pi -> 0
  | Buf | Not -> 1
  | And | Nand | Or | Nor | Xor | Xnor -> max_int

let check_arity kind n =
  if n < min_arity kind || n > max_arity kind then
    invalid_arg
      (Printf.sprintf "Cell_kind.eval: %s cannot take %d inputs" (to_string kind) n)

let eval kind ins =
  let n = Array.length ins in
  check_arity kind n;
  match kind with
  | Pi -> invalid_arg "Cell_kind.eval: Pi has no logic function"
  | Buf -> ins.(0)
  | Not -> not ins.(0)
  | And -> Array.for_all Fun.id ins
  | Nand -> not (Array.for_all Fun.id ins)
  | Or -> Array.exists Fun.id ins
  | Nor -> not (Array.exists Fun.id ins)
  | Xor -> Array.fold_left (fun acc b -> acc <> b) false ins
  | Xnor -> not (Array.fold_left (fun acc b -> acc <> b) false ins)

let all_cells = [ Buf; Not; And; Nand; Or; Nor; Xor; Xnor ]
let pp ppf k = Format.pp_print_string ppf (to_string k)
