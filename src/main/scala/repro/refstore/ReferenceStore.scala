package repro.refstore

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

/** A versioned, upsertable reference dataset — the analog of an AsterixDB
  * dataset backed by an LSM tree.
  *
  * The immutable `base` DataFrame plays the role of the on-disk LSM
  * components; the in-memory delta map plays the role of the LSM memory
  * component that an `UPSERT` activates. When no update has ever arrived,
  * `snapshot()` returns the base directly (the paper's observation that the
  * *first* update changes the access path — and measurably slows readers —
  * is mirrored by this fast path disappearing).
  *
  * Once the delta is non-empty, `snapshot()` builds one local relation per
  * store version: the base rows (read once, by the first upsert) without
  * those whose key is in the delta, followed by the delta's rows —
  * last writer wins on the primary key. Its plan is a single relation
  * whatever the size of the delta; building it costs time linear in the
  * rows, not a plan that grows with every upserted key.
  *
  * Thread-safe: the ingestion pipeline reads snapshots while an updater
  * thread upserts (paper §7.3). Each snapshot is an immutable relation over
  * a frozen copy of the delta, so a computing job sees exactly the updates
  * applied before it started — the record-level consistency model the paper
  * assumes.
  */
final class ReferenceStore(
    val name: String,
    spark: SparkSession,
    base: DataFrame,
    val primaryKey: String) {

  private val pkIdx = base.schema.fieldIndex(primaryKey)
  private val delta = mutable.LinkedHashMap.empty[String, Row]
  private var ver: Long = 0L
  private var cachedVer: Long = -1L
  private var cachedSnap: DataFrame = base
  private var baseRows: Array[Row] = _

  private def key(r: Row): String = String.valueOf(r.get(pkIdx))

  /** Number of upsert calls applied so far (monotonic). */
  def version: Long = synchronized(ver)

  /** Number of distinct keys currently in the in-memory delta component. */
  def deltaSize: Int = synchronized(delta.size)

  /** UPSERT: insert rows, replacing any existing row with the same key
    * (paper footnote 1). Rows must match the base schema.
    */
  def upsert(rows: Seq[Row]): Unit = synchronized {
    if (baseRows == null) baseRows = base.collect()
    rows.foreach { r =>
      require(r.size == base.schema.size,
        s"$name: upsert row arity ${r.size} != schema arity ${base.schema.size}")
      delta(key(r)) = r
    }
    ver += 1
  }

  /** UPSERT of case-class instances whose field order matches the schema. */
  def upsertProducts(ps: Seq[Product]): Unit =
    upsert(ps.map(p => Row.fromSeq(p.productIterator.toSeq)))

  /** Current merged view. Cached per version so repeated reads between
    * updates (e.g. several UDFs sharing one store) build it once.
    */
  def snapshot(): DataFrame = synchronized {
    if (ver == cachedVer) return cachedSnap
    val snap =
      if (delta.isEmpty) base
      else {
        val merged = baseRows.iterator.filterNot(r => delta.contains(key(r))) ++ delta.valuesIterator
        spark.createDataFrame(merged.toList.asJava, base.schema)
      }
    cachedVer = ver
    cachedSnap = snap
    snap
  }

  /** A snapshot frozen at construction time — what a static (Model 3)
    * pipeline holds on to for its whole lifetime.
    */
  val staticSnapshot: DataFrame = base
}

object ReferenceStore {
  def apply(spark: SparkSession, name: String, base: DataFrame, pk: String): ReferenceStore =
    new ReferenceStore(name, spark, base, pk)
}
