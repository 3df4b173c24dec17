(* Slot [i] is the Canonical row at data.[i*w .. (i+1)*w), w = num_pcs + 2.
   The array is a plain unboxed float array, so a timing pass touches one
   flat buffer instead of one heap record per gate — and a level's gates
   can be written by concurrent domains because every slot is disjoint. *)

type t = { n : int; num_pcs : int; data : float array }

let create ~n ~num_pcs =
  { n; num_pcs; data = Array.make (n * Canonical.row_width num_pcs) 0.0 }

let width t = Canonical.row_width t.num_pcs
let row t i = i * width t
let get t i = Canonical.of_row ~np:t.num_pcs t.data (row t i)
let set t i c = Canonical.to_row c t.data (row t i)
let zero t i = Array.fill t.data (row t i) (width t) 0.0
let blit src i dst j = Array.blit src.data (row src i) dst.data (row dst j) (width src)

let add a i b j ~dst k =
  Canonical.add_rows ~np:a.num_pcs a.data (row a i) b.data (row b j) dst.data (row dst k)

let max2 f a i b j ~dst k =
  Canonical.max2_rows f ~np:a.num_pcs a.data (row a i) b.data (row b j) dst.data
    (row dst k)

let sigma t i = Canonical.sigma_row ~np:t.num_pcs t.data (row t i)

(* [=] at type int64 compiles to an unboxed comparison *)
let bits_equal (x : float) (y : float) = Int64.bits_of_float x = Int64.bits_of_float y

let equal a i b j =
  let w = width a and da = a.data and db = b.data in
  let oa = row a i and ob = row b j in
  let k = ref 0 in
  while !k < w && bits_equal da.(oa + !k) db.(ob + !k) do
    incr k
  done;
  !k = w
